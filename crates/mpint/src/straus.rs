//! Straus (interleaved) multi-exponentiation: `∏ bᵢ^{eᵢ} mod n` with one
//! shared squaring chain.
//!
//! Weighted federated aggregation multiplies many ciphertext powers
//! together: `∏ cᵢ^{kᵢ} mod n²` (each participant's gradient scaled by
//! its sample count). Computed pairwise — one sliding-window
//! exponentiation per base plus a product — every base pays its own
//! squaring chain: `B·(bits + bits/(w+1))` Montgomery multiplications for
//! `B` bases. Straus' trick (Straus 1964; Menezes et al., *Handbook of
//! Applied Cryptography*, Alg. 14.88) scans all exponents' windows in
//! lockstep from the most significant digit down, so the whole batch
//! shares a *single* chain of `bits` squarings: `bits` squarings +
//! `≤ B·bits/w` table multiplications + `B·(2^w − 2)` table-build
//! multiplications. For the paper's 64-participant aggregates the shared
//! chain cuts total Montgomery multiplications by well over 2×.
//!
//! Exponents here are *public* aggregation weights (sample counts), so
//! the digit-dependent multiply schedule leaks nothing; secret exponents
//! must keep using [`crate::modpow::mod_pow_ct`]. Squarings route through
//! the dedicated [`crate::cios::mont_sqr_into`] kernel.

use crate::cios;
use crate::limb::Limb;
use crate::montgomery::{MontAcc, MontgomeryCtx};
use crate::natural::Natural;

/// Window width (bits per digit) for a Straus pass over `count` bases
/// whose largest exponent has `max_bits` bits.
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

/// Window width for one *shard* of a sharded Straus pass: `arity` bases
/// sharing one squaring chain, exponents of at most `max_bits` bits.
///
/// [`straus_window_for`] is tuned for the paper's wide 64-way aggregates,
/// where the shared squaring chain is fully amortized and only the
/// per-base break-even matters. A shard amortizes its chain over just
/// `arity` bases, so the squaring/table trade-off genuinely shifts with
/// the shard size. This picks the `w ∈ [1, 8]` minimizing the modeled
/// Montgomery-multiplication cost
///
/// ```text
/// 3/4 · (⌈bits/w⌉ − 1) · w      (squarings, dedicated-kernel rate)
///   + arity · (⌈bits/w⌉ + 2^w − 2)   (column + table-build multiplies)
/// ```
///
/// with ties going to the narrower window. The choice affects cost only:
/// [`multi_exp_mont`] returns the identical canonical product at any
/// width.
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

/// Interleaved multi-exponentiation over Montgomery-form bases: returns
/// `∏ bases_m[i]^{exps[i]}` in Montgomery form. Empty input yields the
/// Montgomery form of 1.
///
/// `bases_m` must be in the Montgomery domain of `ctx` and reduced mod
/// `n`; `exps` are plain (non-Montgomery) public exponents.
///
/// # Panics
///
/// Panics if the slice lengths differ or `window` is outside `[1, 8]`.
pub fn multi_exp_mont(
    ctx: &MontgomeryCtx,
    bases_m: &[Natural],
    exps: &[Natural],
    window: u32,
) -> Natural {
    // Documented precondition (see `# Panics`): callers validate shapes
    // before entering the kernel (`weighted_sum` returns a typed error).
    // flcheck: allow(pf-assert)
    assert_eq!(
        bases_m.len(),
        exps.len(),
        "each base needs exactly one exponent"
    );
    // Same documented precondition: window widths beyond 8 would build
    // 255+-entry tables and are rejected up front.
    // flcheck: allow(pf-assert)
    assert!((1..=8).contains(&window), "window must be in [1, 8]");
    let max_bits = exps.iter().map(Natural::bit_len).max().unwrap_or(0);
    if max_bits == 0 {
        // All exponents zero (or no bases): the empty product.
        return ctx.one_mont();
    }
    let s = ctx.width();
    let (n, n0_inv) = (ctx.modulus().limbs(), ctx.n0_inv());

    // Per-base digit tables in one flat buffer: base i owns chunk i of
    // `table_len` fixed-width entries, entry d−1 = bases_m[i]^d for
    // d = 1..2^w − 1. Bases with a zero exponent never contribute a
    // nonzero digit, so their table build is skipped outright.
    let table_len = (1usize << window) - 1;
    let mut tables = vec![0; bases_m.len() * table_len * s];
    for ((table, b), e) in tables
        .chunks_exact_mut(table_len * s)
        .zip(bases_m)
        .zip(exps)
    {
        if e.is_zero() {
            continue;
        }
        let (base, powers) = table.split_at_mut(s);
        base.copy_from_slice(&b.to_padded_limbs(s));
        let mut prev: &[Limb] = base;
        for entry in powers.chunks_exact_mut(s) {
            cios::mont_mul_into(entry, prev, base, n, n0_inv);
            prev = entry;
        }
    }

    // One shared squaring chain over the digit columns, most significant
    // first: w squarings per column, then one table multiply per base
    // whose digit is nonzero.
    let mut acc = MontAcc::new(ctx, ctx.one_mont().to_padded_limbs(s));
    let columns = max_bits.div_ceil(window);
    for col in (0..columns).rev() {
        if col + 1 < columns {
            for _ in 0..window {
                acc.sqr();
            }
        }
        for (table, e) in tables.chunks_exact(table_len * s).zip(exps) {
            let digit = e.extract_bits(col * window, window) as usize;
            if digit != 0 {
                // digit is a w-bit value in [1, 2^w - 1] and the table
                // holds exactly 2^w - 1 entries, so entry digit-1 is in
                // bounds.
                // flcheck: allow(pf-index)
                acc.mul(&table[(digit - 1) * s..digit * s]);
            }
        }
    }
    acc.into_natural()
}

/// Convenience form over plain residues: reduces and converts each base
/// into the Montgomery domain, runs [`multi_exp_mont`] with the window
/// from [`straus_window_for`], and converts the product back out.
pub fn multi_exp_ctx(ctx: &MontgomeryCtx, bases: &[Natural], exps: &[Natural]) -> Natural {
    let bases_m: Vec<Natural> = bases.iter().map(|b| ctx.to_mont(&ctx.reduce(b))).collect();
    let max_bits = exps.iter().map(Natural::bit_len).max().unwrap_or(0);
    let window = straus_window_for(max_bits);
    ctx.from_mont(&multi_exp_mont(ctx, &bases_m, exps, window))
}

/// Montgomery multiplications a Straus pass performs, worst case: the
/// shared squaring chain, a full column of table multiplies per digit,
/// and the table builds. Used by the GPU simulator's timing model and the
/// hot-path bench's limb-mult accounting.
pub fn straus_mult_count(count: u64, max_bits: u32, window: u32) -> u64 {
    if count == 0 || max_bits == 0 {
        return 0;
    }
    let w = window.max(1);
    let columns = max_bits.div_ceil(w) as u64;
    let squarings = columns.saturating_sub(1) * w as u64;
    let column_muls = count * columns;
    let table_muls = count * ((1u64 << w) - 2);
    squarings + column_muls + table_muls
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
    fn every_window_width_agrees() {
        let p = (1u128 << 127) - 1;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let bases: Vec<Natural> = (2..10u128).map(n).collect();
        let exps: Vec<Natural> = (0..8u128).map(|i| n(i * 7919 + 1)).collect();
        let bases_m: Vec<Natural> = bases.iter().map(|b| ctx.to_mont(b)).collect();
        let reference = naive(&ctx, &bases, &exps);
        for w in 1..=8 {
            let got = ctx.from_mont(&multi_exp_mont(&ctx, &bases_m, &exps, w));
            assert_eq!(got, reference, "window {w}");
        }
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
    fn shared_chain_beats_pairwise_in_mult_count() {
        // 64 bases, 32-bit weights, 1024-bit modulus: the Table-IV shape.
        let bits = 32;
        let w = straus_window_for(bits);
        let straus = straus_mult_count(64, bits, w);
        // Pairwise: per base, bits squarings + bits/(w'+1) multiplies +
        // table + one product multiply.
        let w1 = crate::modpow::window_size_for(bits) as u64;
        let pairwise = 64 * (bits as u64 + bits as u64 / (w1 + 1) + (1 << (w1 - 1)) + 1);
        assert!(
            straus * 2 < pairwise,
            "straus {straus} not 2x under pairwise {pairwise}"
        );
    }

    #[test]
    #[should_panic(expected = "exactly one exponent")]
    fn mismatched_lengths_panic() {
        let ctx = MontgomeryCtx::new(&n(101)).unwrap();
        multi_exp_mont(&ctx, &[n(3)], &[], 4);
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
        // A sharded pass — independent chains per span with arity-tuned
        // windows, partials merged by modular multiplication — equals the
        // flat fold bit for bit: every chain returns the canonical
        // residue of its partial product.
        let p = (1u128 << 127) - 1;
        let ctx = MontgomeryCtx::new(&n(p)).unwrap();
        let bases: Vec<Natural> = (2..15u128).map(n).collect();
        let exps: Vec<Natural> = (0..13u128).map(|i| n(i * 104_729 + 3)).collect();
        let bases_m: Vec<Natural> = bases.iter().map(|b| ctx.to_mont(b)).collect();
        let max_bits = exps.iter().map(Natural::bit_len).max().unwrap();
        let flat = multi_exp_mont(&ctx, &bases_m, &exps, straus_window_for(max_bits));
        for shards in [1usize, 2, 3, 7, 13, 40] {
            let merged = shard_spans(bases.len(), shards)
                .into_iter()
                .map(|s| {
                    let w = straus_window_for_arity(max_bits, s.len());
                    multi_exp_mont(&ctx, &bases_m[s.clone()], &exps[s], w)
                })
                .reduce(|a, b| ctx.mont_mul(&a, &b))
                .unwrap();
            assert_eq!(merged, flat, "shards {shards}");
        }
    }
}
