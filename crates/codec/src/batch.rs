//! Batch compression (paper Sec. IV-C, Eq. 9 and 11–13).
//!
//! Packs `n = ⌊k / (r + b)⌋` quantized slots into one `k`-bit plaintext
//! integer, so one Paillier encryption/ciphertext/homomorphic-addition
//! carries `n` gradient components. Because every slot keeps its `b` guard
//! bits, *integer addition of packed words is slot-wise addition* — which
//! is exactly what Paillier's ciphertext multiplication produces — with no
//! carry ever crossing a slot boundary for up to `2^b` aggregated terms.

use mpint::Natural;

use crate::quantize::{Quantizer, QuantizerConfig};
use crate::{Error, Result};

/// Packs/unpacks gradient vectors into multi-precision plaintexts.
#[derive(Debug, Clone)]
pub struct BatchCodec {
    quantizer: Quantizer,
    key_bits: u32,
    /// Below `key_bits`, so slot offsets `slot · slot_bits` fit a `u32`.
    slots_per_word: u32,
}

impl BatchCodec {
    /// Builds a codec for a `key_bits`-bit plaintext space.
    pub fn new(cfg: QuantizerConfig, key_bits: u32) -> Result<Self> {
        let quantizer = Quantizer::new(cfg)?;
        let slot_bits = cfg.slot_bits();
        // One slot of headroom is kept: the packed value must stay below
        // the Paillier modulus n (which has exactly key_bits bits), so we
        // leave the top slot free rather than risk z >= n.
        let slots_per_word = (key_bits / slot_bits).saturating_sub(1);
        if slots_per_word == 0 {
            return Err(Error::KeyTooSmall {
                key_bits,
                slot_bits,
            });
        }
        Ok(BatchCodec {
            quantizer,
            key_bits,
            slots_per_word,
        })
    }

    /// The same codec with one slot per word: the layout of a backend
    /// without batch compression, which encrypts every quantized value as
    /// its own plaintext and decodes it through the same checks.
    pub fn one_slot_per_word(self) -> Self {
        BatchCodec {
            slots_per_word: 1,
            ..self
        }
    }

    /// The single-value quantizer in use.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// Plaintexts packed per big integer (the paper's
    /// `n = ⌊k/(r+⌈log₂p⌉)⌋`, minus the reserved top slot).
    pub fn slots_per_word(&self) -> usize {
        self.slots_per_word as usize
    }

    /// Key size this codec packs for.
    pub fn key_bits(&self) -> u32 {
        self.key_bits
    }

    /// Number of packed words needed for `count` values.
    pub fn words_for(&self, count: usize) -> usize {
        count.div_ceil(self.slots_per_word())
    }

    /// Compression ratio for `count` values (paper Eq. 11): plaintext
    /// count divided by ciphertext count.
    pub fn compression_ratio(&self, count: usize) -> f64 {
        if count == 0 {
            return 1.0;
        }
        count as f64 / self.words_for(count) as f64
    }

    /// Plaintext-space utilization (paper Eq. 12).
    pub fn plaintext_space_utilization(&self, count: usize) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let slot_bits = self.quantizer.config().slot_bits() as f64;
        (count as f64 * slot_bits) / (self.key_bits as f64 * self.words_for(count) as f64)
    }

    /// Quantizes and packs a gradient vector into big-integer plaintexts
    /// (Eq. 9 layout: slot `i` of a word occupies bits
    /// `[i·(r+b), (i+1)·(r+b))`).
    pub fn pack(&self, values: &[f64]) -> Result<Vec<Natural>> {
        let slot_bits = self.quantizer.config().slot_bits();
        let mut words = Vec::with_capacity(self.words_for(values.len()));
        for chunk in values.chunks(self.slots_per_word()) {
            let mut word = Natural::zero();
            // Packing runs on the data owner's host before encryption; its
            // timing is visible only to the plaintext owner, never to the
            // aggregator.
            for (slot, &v) in (0u32..).zip(chunk) {
                let q = self.quantizer.quantize(v)?;
                // Deliberate sparsity fast path: skip zero slots.
                if q != 0 {
                    word.add_assign_ref(&Natural::from(q).shl_bits(slot * slot_bits));
                }
            }
            words.push(word);
        }
        Ok(words)
    }

    /// Unpacks `count` single (non-aggregated) values.
    pub fn unpack(&self, words: &[Natural], count: usize) -> Result<Vec<f64>> {
        self.unpack_sums(words, count, 1)
    }

    /// Unpacks `count` slots, each holding the sum of `terms` quantized
    /// values (the post-aggregation decode path). Fails if `terms` exceeds
    /// the guard-bit capacity, if `words` is not exactly the
    /// [`words_for`](Self::words_for) `count` words that hold the values,
    /// or if a word has a bit set past its last used slot — what a
    /// tampered or mis-keyed decryption looks like.
    pub fn unpack_sums(&self, words: &[Natural], count: usize, terms: u32) -> Result<Vec<f64>> {
        self.quantizer.check_terms(terms)?;
        let available = words.len() * self.slots_per_word();
        if count > available {
            return Err(Error::NotEnoughData {
                requested: count,
                available,
            });
        }
        let expected = self.words_for(count);
        if words.len() > expected {
            return Err(Error::ExtraWords {
                expected,
                got: words.len(),
            });
        }
        let slot_bits = self.quantizer.config().slot_bits();
        let mut out = Vec::with_capacity(count);
        for (i, word) in words.iter().enumerate() {
            let used = count.saturating_sub(i * self.slots_per_word());
            let mut end = 0;
            for slot in (0..self.slots_per_word).take(used) {
                let z = word.extract_bits(slot * slot_bits, slot_bits);
                out.push(self.quantizer.dequantize_sum(z, terms));
                end = (slot + 1) * slot_bits;
            }
            if word.bit_len() > end {
                return Err(Error::SlotOverflow {
                    word: i,
                    bits: word.bit_len(),
                    limit: end,
                });
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codec(key_bits: u32, participants: u32) -> BatchCodec {
        BatchCodec::new(QuantizerConfig::paper_default(participants), key_bits).unwrap()
    }

    #[test]
    fn paper_capacity_at_1024() {
        // 32-bit slots in a 1024-bit key: 32 slots, one reserved -> 31.
        let c = codec(1024, 4);
        assert_eq!(c.slots_per_word(), 31);
        assert!(c.compression_ratio(31 * 100) > 30.0);
    }

    #[test]
    fn capacity_doubles_with_key_size() {
        let c1 = codec(1024, 4);
        let c2 = codec(2048, 4);
        let c4 = codec(4096, 4);
        assert_eq!(c2.slots_per_word(), 63);
        assert_eq!(c4.slots_per_word(), 127);
        assert!(c1.slots_per_word() < c2.slots_per_word());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let c = codec(1024, 4);
        let values: Vec<f64> = (0..100).map(|i| (i as f64 / 50.0) - 1.0).collect();
        let packed = c.pack(&values).unwrap();
        assert_eq!(packed.len(), c.words_for(100));
        let back = c.unpack(&packed, 100).unwrap();
        let bound = c.quantizer().max_error();
        for (a, b) in values.iter().zip(&back) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn packed_words_fit_plaintext_space() {
        let c = codec(256, 4);
        let values = vec![1.0; c.slots_per_word() * 3]; // all-max slots
        let word_bits = c.slots_per_word() * c.quantizer().config().slot_bits() as usize;
        assert!(word_bits < 256);
        for w in c.pack(&values).unwrap() {
            assert!(w.bit_len() as usize <= word_bits);
        }
    }

    #[test]
    fn slotwise_addition_matches_elementwise_sum() {
        let c = codec(512, 4);
        let a: Vec<f64> = (0..40).map(|i| (i as f64).sin() * 0.9).collect();
        let b: Vec<f64> = (0..40).map(|i| (i as f64).cos() * 0.9).collect();
        let pa = c.pack(&a).unwrap();
        let pb = c.pack(&b).unwrap();
        let sum: Vec<Natural> = pa.iter().zip(&pb).map(|(x, y)| x + y).collect();
        let decoded = c.unpack_sums(&sum, 40, 2).unwrap();
        let bound = 2.0 * c.quantizer().max_error();
        for i in 0..40 {
            assert!((decoded[i] - (a[i] + b[i])).abs() <= bound, "slot {i}");
        }
    }

    #[test]
    fn aggregation_up_to_guard_capacity() {
        let c = codec(512, 4); // b = 2 -> up to 4 terms
        let parties: Vec<Vec<f64>> = (0..4)
            .map(|p| {
                (0..20)
                    .map(|i| ((p * 20 + i) as f64 * 0.01) - 0.3)
                    .collect()
            })
            .collect();
        let mut acc = c.pack(&parties[0]).unwrap();
        for p in &parties[1..] {
            acc = acc
                .iter()
                .zip(&c.pack(p).unwrap())
                .map(|(x, y)| x + y)
                .collect();
        }
        let decoded = c.unpack_sums(&acc, 20, 4).unwrap();
        let bound = 4.0 * c.quantizer().max_error();
        for i in 0..20 {
            let expected: f64 = parties.iter().map(|p| p[i]).sum();
            assert!((decoded[i] - expected).abs() <= bound);
        }
    }

    #[test]
    fn too_many_terms_rejected() {
        let c = codec(512, 4);
        let packed = c.pack(&[0.0; 4]).unwrap();
        assert!(matches!(
            c.unpack_sums(&packed, 4, 5),
            Err(Error::OverflowBitsExhausted { .. })
        ));
    }

    #[test]
    fn unpack_beyond_data_rejected() {
        let c = codec(512, 4);
        let packed = c.pack(&[0.5; 10]).unwrap();
        let cap = packed.len() * c.slots_per_word();
        assert!(matches!(
            c.unpack(&packed, cap + 1),
            Err(Error::NotEnoughData { .. })
        ));
    }

    #[test]
    fn unpack_refuses_words_its_values_do_not_occupy() {
        let c = codec(512, 4);
        let mut packed = c.pack(&[0.5; 10]).unwrap();
        assert_eq!(packed.len(), 1);
        packed.push(Natural::zero());
        let err = c.unpack(&packed, 10).unwrap_err();
        assert_eq!(err.to_string(), "2 words given but the values occupy 1");
    }

    #[test]
    fn unpack_refuses_bits_past_the_last_used_slot() {
        let c = codec(512, 4);
        let slot_bits = c.quantizer().config().slot_bits();
        let spw = c.slots_per_word();
        let values = vec![0.5; spw + 3]; // one full word, then three slots
        let packed = c.pack(&values).unwrap();
        assert!(c.unpack(&packed, values.len()).is_ok());
        // The first bit of the partial word's first unused slot, then the
        // full word's reserved top slot.
        let partial_end = 3 * slot_bits;
        let full_end = u32::try_from(spw).unwrap() * slot_bits;
        for (word, end) in [(1usize, partial_end), (0, full_end)] {
            let mut bad = packed.clone();
            bad[word].add_assign_ref(&Natural::from(1u64).shl_bits(end));
            let err = c.unpack(&bad, values.len()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "word {word} is {} bits long but its used slots end at bit {end}",
                    end + 1
                )
            );
        }
    }

    #[test]
    fn key_too_small_rejected() {
        assert!(matches!(
            BatchCodec::new(QuantizerConfig::paper_default(4), 32),
            Err(Error::KeyTooSmall { .. })
        ));
        // 64 bits = exactly 2 slots, one reserved -> 1 usable: OK.
        assert_eq!(codec(64, 4).slots_per_word(), 1);
    }

    #[test]
    fn compression_ratio_bounded_by_eq11() {
        let c = codec(1024, 4);
        let cfg = c.quantizer().config();
        let upper = c.key_bits() as f64 / cfg.slot_bits() as f64;
        for count in [1usize, 31, 32, 1000, 12345] {
            assert!(c.compression_ratio(count) <= upper + 1e-9);
        }
        // Large vectors approach the bound.
        assert!(c.compression_ratio(31 * 1000) > upper - 1.5);
    }

    #[test]
    fn psu_bounded_by_one() {
        let c = codec(1024, 4);
        for count in [1usize, 31, 62, 1000] {
            let psu = c.plaintext_space_utilization(count);
            assert!(psu > 0.0 && psu <= 1.0, "count {count}: psu {psu}");
        }
        assert_eq!(c.plaintext_space_utilization(0), 0.0);
    }

    #[test]
    fn empty_input_packs_to_nothing() {
        let c = codec(512, 4);
        assert!(c.pack(&[]).unwrap().is_empty());
        assert!(c.unpack(&[], 0).unwrap().is_empty());
        assert_eq!(c.compression_ratio(0), 1.0);
    }

    #[test]
    fn partial_last_word() {
        let c = codec(512, 2); // slot 32 bits -> 16 slots - 1 = 15 per word
        let values = vec![0.25; 20]; // 15 + 5
        let packed = c.pack(&values).unwrap();
        assert_eq!(packed.len(), 2);
        let back = c.unpack(&packed, 20).unwrap();
        assert_eq!(back.len(), 20);
    }
}
