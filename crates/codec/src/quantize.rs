//! Encoding-quantization (paper Sec. IV-B, Eq. 6–8).
//!
//! A gradient `m ∈ [-α, α]` is shifted non-negative (`e = m + α`),
//! normalized by the range `2α`, and amplified into `r` bits
//! (`q = round(e/2α · (2^r − 1))`). `b = ⌈log₂ p⌉` guard ("overflow") bits
//! sit above the `r` value bits so that summing the quantized values of up
//! to `p = 2^b` participants can never carry out of the slot — the
//! property that makes packed slots safe under Paillier's homomorphic
//! addition.
//!
//! Unlike (significand, plaintext-exponent) encodings, the whole value is
//! quantized and encrypted, so nothing about the gradient's magnitude
//! leaks (the paper's security argument against FLASHE-style encodings).

use crate::{Error, Result};

/// Configuration of the encoding-quantization scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizerConfig {
    /// Gradient bound α: inputs must lie in `[-α, α]` (gradients are
    /// clipped here first; the paper notes α is "usually smaller than 1").
    pub alpha: f64,
    /// Value bits `r`.
    pub r_bits: u32,
    /// Number of participants `p`; fixes the guard bits `b = ⌈log₂ p⌉`.
    pub participants: u32,
    /// If true, out-of-range values are clipped to ±α instead of being
    /// rejected.
    pub clip: bool,
}

impl QuantizerConfig {
    /// The paper's default: 32-bit slots ("32 bits are used to quantize
    /// 32-bit float gradients, where the last two bits are used for
    /// computational overflow"), α = 1.
    pub fn paper_default(participants: u32) -> Self {
        let b = guard_bits(participants);
        QuantizerConfig {
            alpha: 1.0,
            r_bits: 32 - b,
            participants,
            clip: true,
        }
    }

    /// Guard bits `b = ⌈log₂ p⌉` (at least 1 so two values can always be
    /// added).
    pub fn guard_bits(&self) -> u32 {
        guard_bits(self.participants)
    }

    /// Slot width `r + b` in bits.
    pub fn slot_bits(&self) -> u32 {
        self.r_bits + self.guard_bits()
    }

    /// Maximum number of terms that can be aggregated into one slot.
    pub fn max_terms(&self) -> u32 {
        1u32 << self.guard_bits().min(31)
    }

    fn validate(&self) -> Result<()> {
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(Error::BadConfig(format!(
                "alpha must be positive, got {}",
                self.alpha
            )));
        }
        if self.r_bits == 0 {
            return Err(Error::BadConfig("r_bits must be at least 1".into()));
        }
        if self.participants == 0 {
            return Err(Error::BadConfig("participants must be at least 1".into()));
        }
        if self.slot_bits() > 62 {
            // Slots are manipulated as u64 with headroom for aggregation.
            return Err(Error::BadConfig(format!(
                "slot width {} exceeds the 62-bit slot limit",
                self.slot_bits()
            )));
        }
        Ok(())
    }
}

fn guard_bits(participants: u32) -> u32 {
    (32 - participants.max(2).next_power_of_two().leading_zeros() - 1).max(1)
}

/// The encoder/decoder for single values.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    cfg: QuantizerConfig,
    /// `2^r − 1` as f64.
    scale: f64,
}

impl Quantizer {
    /// Builds a quantizer, validating the configuration.
    pub fn new(cfg: QuantizerConfig) -> Result<Self> {
        cfg.validate()?;
        let scale = ((1u64 << cfg.r_bits) - 1) as f64;
        Ok(Quantizer { cfg, scale })
    }

    /// The configuration.
    pub fn config(&self) -> &QuantizerConfig {
        &self.cfg
    }

    /// Quantizes one gradient value (Eq. 6–8).
    pub fn quantize(&self, m: f64) -> Result<u64> {
        if !m.is_finite() {
            return Err(Error::ValueOutOfRange {
                value: m,
                alpha: self.cfg.alpha,
            });
        }
        let a = self.cfg.alpha;
        let m = if self.cfg.clip {
            m.clamp(-a, a)
        } else if m < -a || m > a {
            return Err(Error::ValueOutOfRange { value: m, alpha: a });
        } else {
            m
        };
        // e = m + α, normalized into [0, 1] then amplified into r bits.
        let e = (m + a) / (2.0 * a);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "e is clipped to [0, 1], so e·scale is an integer-valued f64 in [0, 2^r]; \
                      the cast drops only the zero fraction"
        )]
        Ok((e * self.scale).round() as u64)
    }

    /// Inverse of [`Quantizer::quantize`] for a single (non-aggregated)
    /// value.
    pub fn dequantize(&self, q: u64) -> f64 {
        self.dequantize_sum(q, 1)
    }

    /// Decodes a slot holding the sum of `terms` quantized values:
    /// `Σ qᵢ / (2^r − 1) · 2α − terms·α`.
    pub fn dequantize_sum(&self, z: u64, terms: u32) -> f64 {
        let a = self.cfg.alpha;
        (z as f64 / self.scale) * 2.0 * a - terms as f64 * a
    }

    /// Worst-case absolute quantization error for one value:
    /// half a quantization step, `α / (2^r − 1)`.
    pub fn max_error(&self) -> f64 {
        self.cfg.alpha / self.scale
    }

    /// Checks that aggregating `terms` slots cannot overflow the guard
    /// bits.
    pub fn check_terms(&self, terms: u32) -> Result<()> {
        if terms > self.cfg.max_terms() {
            return Err(Error::OverflowBitsExhausted {
                terms,
                max_terms: self.cfg.max_terms(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpint::Natural;

    fn quantizer(r: u32, p: u32) -> Quantizer {
        Quantizer::new(QuantizerConfig {
            alpha: 1.0,
            r_bits: r,
            participants: p,
            clip: false,
        })
        .unwrap()
    }

    #[test]
    fn guard_bits_formula() {
        // b = ceil(log2 p), minimum 1.
        assert_eq!(guard_bits(1), 1);
        assert_eq!(guard_bits(2), 1);
        assert_eq!(guard_bits(3), 2);
        assert_eq!(guard_bits(4), 2);
        assert_eq!(guard_bits(5), 3);
        assert_eq!(guard_bits(64), 6);
        assert_eq!(guard_bits(65), 7);
    }

    #[test]
    fn paper_default_is_32_bit_slot() {
        let cfg = QuantizerConfig::paper_default(4);
        assert_eq!(cfg.slot_bits(), 32);
        assert_eq!(cfg.guard_bits(), 2);
        assert_eq!(cfg.r_bits, 30);
    }

    #[test]
    fn roundtrip_error_is_bounded() {
        let q = quantizer(30, 4);
        let bound = q.max_error();
        for &m in &[0.0, 1.0, -1.0, 0.5, -0.123456789, 1e-9, 0.99999] {
            let back = q.dequantize(q.quantize(m).unwrap());
            assert!((m - back).abs() <= bound, "m={m} back={back} bound={bound}");
        }
    }

    #[test]
    fn error_shrinks_with_more_bits() {
        assert!(quantizer(30, 4).max_error() < quantizer(8, 4).max_error());
        assert!(quantizer(30, 4).max_error() < 1e-8);
    }

    #[test]
    fn endpoints_map_to_extremes() {
        let q = quantizer(16, 2);
        assert_eq!(q.quantize(-1.0).unwrap(), 0);
        assert_eq!(q.quantize(1.0).unwrap(), (1 << 16) - 1);
        assert_eq!(q.quantize(0.0).unwrap(), (1 << 15)); // round(0.5 * 65535) = 32768
    }

    #[test]
    fn strict_mode_rejects_out_of_range() {
        let q = quantizer(16, 2);
        assert!(matches!(
            q.quantize(1.5),
            Err(Error::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            q.quantize(f64::NAN),
            Err(Error::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            q.quantize(f64::INFINITY),
            Err(Error::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn clip_mode_clamps() {
        let q = Quantizer::new(QuantizerConfig {
            alpha: 1.0,
            r_bits: 16,
            participants: 2,
            clip: true,
        })
        .unwrap();
        assert_eq!(q.quantize(5.0).unwrap(), q.quantize(1.0).unwrap());
        assert_eq!(q.quantize(-5.0).unwrap(), q.quantize(-1.0).unwrap());
        // NaN is still rejected even when clipping.
        assert!(q.quantize(f64::NAN).is_err());
    }

    #[test]
    fn aggregated_sum_decodes_correctly() {
        let q = quantizer(20, 4);
        let values = [0.25, -0.5, 0.75, -0.125];
        let z: u64 = values.iter().map(|&m| q.quantize(m).unwrap()).sum();
        let sum = q.dequantize_sum(z, values.len() as u32);
        let expected: f64 = values.iter().sum();
        assert!((sum - expected).abs() <= values.len() as f64 * q.max_error());
    }

    #[test]
    fn guard_bits_bound_aggregation() {
        let q = quantizer(20, 4); // b = 2 → max 4 terms
        assert!(q.check_terms(4).is_ok());
        assert!(matches!(
            q.check_terms(5),
            Err(Error::OverflowBitsExhausted { .. })
        ));
        // Even max_terms values at the extreme cannot overflow the slot.
        let max = q.quantize(1.0).unwrap();
        let total = max * 4;
        assert!(total < 1u64 << q.config().slot_bits());
    }

    #[test]
    fn custom_alpha_scales_range() {
        let q = Quantizer::new(QuantizerConfig {
            alpha: 0.01,
            r_bits: 24,
            participants: 2,
            clip: false,
        })
        .unwrap();
        let m = 0.0099;
        let back = q.dequantize(q.quantize(m).unwrap());
        assert!((m - back).abs() <= q.max_error());
        assert!(q.quantize(0.02).is_err());
    }

    #[test]
    fn bad_configs_rejected() {
        assert!(Quantizer::new(QuantizerConfig {
            alpha: 0.0,
            r_bits: 8,
            participants: 2,
            clip: false
        })
        .is_err());
        assert!(Quantizer::new(QuantizerConfig {
            alpha: 1.0,
            r_bits: 0,
            participants: 2,
            clip: false
        })
        .is_err());
        assert!(Quantizer::new(QuantizerConfig {
            alpha: 1.0,
            r_bits: 62,
            participants: 4,
            clip: false
        })
        .is_err());
        assert!(Quantizer::new(QuantizerConfig {
            alpha: 1.0,
            r_bits: 8,
            participants: 0,
            clip: false
        })
        .is_err());
    }

    #[test]
    fn one_sum_per_word_is_held_to_its_count_and_its_slot() {
        // 18-bit slots, up to four terms, one slot per word: the layout
        // without batch compression.
        let codec = crate::BatchCodec::new(*quantizer(16, 4).config(), 256)
            .unwrap()
            .one_slot_per_word();
        let q = codec.quantizer();
        let words = codec.pack(&[0.5, -0.25]).unwrap();
        assert_eq!(words.len(), 2);
        let back = codec.unpack_sums(&words, 2, 1).unwrap();
        assert!((back[0] - 0.5).abs() <= q.max_error());
        assert!((back[1] + 0.25).abs() <= q.max_error());
        // Four terms fill the slot; a bit above it is a word no honest
        // sum makes, even where its low 64 bits decode.
        assert!(codec
            .unpack_sums(&[Natural::from((1u64 << 18) - 1)], 1, 4)
            .is_ok());
        let wide = Natural::from(3u64).shl_bits(64).add_ref(&words[0]);
        for (bad, bits) in [(Natural::from(1u64 << 18), 19), (wide, 66)] {
            let err = codec.unpack_sums(&[bad], 1, 4).unwrap_err();
            let msg = format!("word 0 is {bits} bits long but its used slots end at bit 18");
            assert_eq!(err.to_string(), msg);
        }
        let err = codec.unpack_sums(&words, 1, 1).unwrap_err();
        assert_eq!(err.to_string(), "2 words given but the values occupy 1");
        let err = codec.unpack_sums(&words, 3, 1).unwrap_err();
        assert_eq!(err.to_string(), "requested 3 values but only 2 are packed");
    }
}
