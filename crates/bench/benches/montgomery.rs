//! Kernel bench: the fused CIOS multiply (paper Algorithm 2) through its
//! three entry points — `MontgomeryCtx::mont_mul` over `Natural`s, the
//! allocating flat form and the caller-buffer form — against the
//! lane-partitioned accounting kernel, across the paper's key sizes.
//!
//! The paper selects CIOS following Koç et al. ("the CIOS method has the
//! lowest running time and takes the least storage space"); the gaps
//! between the first three rows are what padding and allocation cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpint::{cios, MontgomeryCtx, Natural};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn random_odd(bits: u32, rng: &mut ChaCha8Rng) -> Natural {
    let mut n = mpint::random::random_bits(rng, bits);
    n.set_bit(0, true);
    n
}

fn bench_montgomery(c: &mut Criterion) {
    let mut group = c.benchmark_group("montgomery_mul");
    let mut rng = ChaCha8Rng::seed_from_u64(42);

    for bits in [1024u32, 2048, 4096] {
        let modulus = random_odd(bits, &mut rng);
        let ctx = MontgomeryCtx::new(&modulus).expect("odd modulus");
        let a = ctx.to_mont(&(&mpint::random::random_bits(&mut rng, bits - 1) % &modulus));
        let b = ctx.to_mont(&(&mpint::random::random_bits(&mut rng, bits - 1) % &modulus));
        let s = ctx.width();
        let ap = a.to_padded_limbs(s);
        let bp = b.to_padded_limbs(s);
        let np = modulus.to_padded_limbs(s);
        let n0 = ctx.n0_inv();

        group.bench_with_input(BenchmarkId::new("ctx_mont_mul", bits), &bits, |bench, _| {
            bench.iter(|| black_box(ctx.mont_mul(black_box(&a), black_box(&b))))
        });
        group.bench_with_input(BenchmarkId::new("cios_flat", bits), &bits, |bench, _| {
            bench.iter(|| black_box(cios::mont_mul(black_box(&ap), black_box(&bp), &np, n0)))
        });
        let mut out = vec![0; s];
        group.bench_with_input(BenchmarkId::new("cios_into", bits), &bits, |bench, _| {
            bench.iter(|| {
                cios::mont_mul_into(black_box(&mut out), black_box(&ap), black_box(&bp), &np, n0)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("cios_partitioned_32", bits),
            &bits,
            |bench, _| {
                bench.iter(|| {
                    black_box(cios::mont_mul_partitioned(
                        black_box(&ap),
                        black_box(&bp),
                        &np,
                        n0,
                        32,
                    ))
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_montgomery
}
criterion_main!(benches);
