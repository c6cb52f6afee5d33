//! Property-based tests for encoding-quantization and batch compression.

use codec::{BatchCodec, Quantizer, QuantizerConfig};
use mpint::Natural;
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = QuantizerConfig> {
    (4u32..=30, 1u32..=16, 0.001f64..10.0).prop_map(|(r, p, alpha)| QuantizerConfig {
        alpha,
        r_bits: r,
        participants: p,
        clip: false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn quantize_roundtrip_error_bounded(cfg in arb_config(), frac in -1.0f64..=1.0) {
        let q = Quantizer::new(cfg).unwrap();
        let m = frac * cfg.alpha;
        let back = q.dequantize(q.quantize(m).unwrap());
        prop_assert!((m - back).abs() <= q.max_error() + 1e-15);
    }

    #[test]
    fn quantized_values_fit_r_bits(cfg in arb_config(), frac in -1.0f64..=1.0) {
        let q = Quantizer::new(cfg).unwrap();
        let v = q.quantize(frac * cfg.alpha).unwrap();
        prop_assert!(v < (1u64 << cfg.r_bits));
    }

    #[test]
    fn quantization_is_monotone(cfg in arb_config(), a in -1.0f64..=1.0, b in -1.0f64..=1.0) {
        let q = Quantizer::new(cfg).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ql = q.quantize(lo * cfg.alpha).unwrap();
        let qh = q.quantize(hi * cfg.alpha).unwrap();
        prop_assert!(ql <= qh);
    }

    #[test]
    fn sum_of_max_terms_never_overflows_slot(cfg in arb_config()) {
        let q = Quantizer::new(cfg).unwrap();
        let max = q.quantize(cfg.alpha).unwrap();
        let total = max as u128 * cfg.max_terms() as u128;
        prop_assert!(total < 1u128 << cfg.slot_bits());
    }

    #[test]
    fn pack_unpack_identity(
        cfg in arb_config(),
        key_pow in 7u32..=11, // 128..2048-bit keys
        fracs in proptest::collection::vec(-1.0f64..=1.0, 0..200),
    ) {
        let key_bits = 1u32 << key_pow;
        prop_assume!(key_bits / cfg.slot_bits() >= 2);
        let codec = BatchCodec::new(cfg, key_bits).unwrap();
        let values: Vec<f64> = fracs.iter().map(|f| f * cfg.alpha).collect();
        let packed = codec.pack(&values).unwrap();
        prop_assert_eq!(packed.len(), codec.words_for(values.len()));
        let back = codec.unpack(&packed, values.len()).unwrap();
        let bound = codec.quantizer().max_error() + 1e-15;
        for (v, b) in values.iter().zip(&back) {
            prop_assert!((v - b).abs() <= bound, "{} vs {}", v, b);
        }
    }

    #[test]
    fn packed_addition_is_slotwise(
        cfg in arb_config(),
        pairs in proptest::collection::vec((-0.5f64..=0.5, -0.5f64..=0.5), 1..120),
    ) {
        prop_assume!(cfg.participants >= 2);
        let codec = BatchCodec::new(cfg, 1024).unwrap();
        let a: Vec<f64> = pairs.iter().map(|(x, _)| x * cfg.alpha).collect();
        let b: Vec<f64> = pairs.iter().map(|(_, y)| y * cfg.alpha).collect();
        let (pa, pb) = (codec.pack(&a).unwrap(), codec.pack(&b).unwrap());
        let sum: Vec<Natural> = pa.iter().zip(&pb).map(|(x, y)| x + y).collect();
        let decoded = codec.unpack_sums(&sum, pairs.len(), 2).unwrap();
        let bound = 2.0 * codec.quantizer().max_error() + 1e-15;
        for i in 0..pairs.len() {
            prop_assert!((decoded[i] - (a[i] + b[i])).abs() <= bound);
        }
    }

    #[test]
    fn packed_words_below_key_bound(
        cfg in arb_config(),
        fracs in proptest::collection::vec(-1.0f64..=1.0, 1..300),
    ) {
        let codec = BatchCodec::new(cfg, 1024).unwrap();
        let values: Vec<f64> = fracs.iter().map(|f| f * cfg.alpha).collect();
        for w in codec.pack(&values).unwrap() {
            prop_assert!(w.bit_len() < 1024, "packed word must be a valid plaintext");
        }
    }

    #[test]
    fn compression_ratio_matches_eq11(cfg in arb_config(), count in 1usize..5000) {
        let codec = BatchCodec::new(cfg, 2048).unwrap();
        let n = codec.slots_per_word();
        // Eq. 11: ratio = count / ceil(count / n)
        let expected = count as f64 / count.div_ceil(n) as f64;
        prop_assert!((codec.compression_ratio(count) - expected).abs() < 1e-9);
        prop_assert!(codec.plaintext_space_utilization(count) <= 1.0);
    }
}
