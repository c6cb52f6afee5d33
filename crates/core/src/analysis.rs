//! Theoretical analysis of FLBooster (paper Sec. V-B, Eq. 10–14).
//!
//! These closed-form models predict the acceleration ratios of the GHE and
//! BC modules; the bench harness prints them next to the simulator's
//! measurements so the two can be compared (they agree by construction on
//! the compression side and approximately on the GHE side, where the
//! simulator additionally models occupancy and divergence).

/// Parameters of the GHE acceleration model (paper Eq. 10).
#[derive(Debug, Clone, Copy)]
pub struct GheModel {
    /// Seconds for the CPU to process one HE operation (`β_cpu`).
    pub beta_cpu: f64,
    /// Seconds per byte copied between CPU and GPU (`β_transfer`).
    pub beta_transfer: f64,
    /// Seconds for the GPU to process one HE operation on one thread
    /// (`β_gpu`).
    pub beta_gpu: f64,
    /// Maximum concurrently running GPU threads (`T_max`).
    pub t_max: u64,
}

impl GheModel {
    /// Acceleration ratio of the GHE module (Eq. 10):
    ///
    /// ```text
    ///            n · β_cpu
    /// AC_ghe = ─────────────────────────────────────────────────
    ///          (L_before/8 + L_after/8)·β_transfer
    ///              + (32·T_max / L_after)⁻¹… (paper's 32-bit form)
    /// ```
    ///
    /// `n` is the number of HE operations, `l_before`/`l_after` the total
    /// data sizes in **bits** before and after processing. Following the
    /// paper's 32-bit-word formulation, the GPU compute term charges
    /// `β_gpu` per batch of `T_max` concurrent operations.
    pub fn ac_ghe(&self, n: u64, l_before_bits: u64, l_after_bits: u64) -> f64 {
        let t_cpu = n as f64 * self.beta_cpu;
        let transfer =
            (l_before_bits as f64 / 8.0 + l_after_bits as f64 / 8.0) * self.beta_transfer;
        // n operations drain in ceil(n / T_max) waves of β_gpu each.
        let waves = (n as f64 / self.t_max as f64).ceil().max(1.0);
        let compute = waves * self.beta_gpu;
        t_cpu / (transfer + compute)
    }
}

/// Compression ratio of the BC module (paper Eq. 11):
/// `n / ⌈n / ⌊k/(r+⌈log₂p⌉)⌋⌉`.
pub fn compression_ratio(n: u64, key_bits: u32, r_bits: u32, participants: u32) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let per_word = slots_per_word(key_bits, r_bits, participants);
    if per_word == 0 {
        return 1.0;
    }
    let words = n.div_ceil(per_word);
    n as f64 / words as f64
}

/// Plaintext-space utilization (paper Eq. 12).
pub fn plaintext_space_utilization(n: u64, key_bits: u32, r_bits: u32, participants: u32) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let per_word = slots_per_word(key_bits, r_bits, participants);
    if per_word == 0 {
        return 0.0;
    }
    let words = n.div_ceil(per_word);
    let slot = (r_bits + guard_bits(participants)) as f64;
    (n as f64 * slot) / (key_bits as f64 * words as f64)
}

/// Acceleration ratio of the BC module (paper Eq. 13): equals the
/// compression ratio, because BC reduces both communication volume and the
/// number of HE operations by the same factor.
pub fn ac_bc(n: u64, key_bits: u32, r_bits: u32, participants: u32) -> f64 {
    compression_ratio(n, key_bits, r_bits, participants)
}

/// Total acceleration (paper Eq. 14): `AC = AC_ghe · AC_bc`.
pub fn total_acceleration(ac_ghe: f64, ac_bc: f64) -> f64 {
    ac_ghe * ac_bc
}

/// `⌈log₂ p⌉`, minimum 1 — shared with `codec`'s quantizer.
pub fn guard_bits(participants: u32) -> u32 {
    (32 - participants.max(2).next_power_of_two().leading_zeros() - 1).max(1)
}

/// `⌊k / (r + b)⌋` — the paper's per-word slot count (the implementation
/// reserves one slot of headroom; this function reports the paper's
/// theoretical value).
pub fn slots_per_word(key_bits: u32, r_bits: u32, participants: u32) -> u64 {
    (key_bits / (r_bits + guard_bits(participants))) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_compression_figures() {
        // Paper Sec. IV-C: "If we use r + b = 32 bits, for homomorphic
        // encryption with key size k = 1024, we can pack 32 plaintexts
        // into a single one and theoretically achieves compression rate of
        // 32×, 64× at 2048 key size, and 128× at 4096 key size."
        assert_eq!(slots_per_word(1024, 30, 4), 32);
        assert_eq!(slots_per_word(2048, 30, 4), 64);
        assert_eq!(slots_per_word(4096, 30, 4), 128);
        let n = 32 * 1000;
        assert!((compression_ratio(n, 1024, 30, 4) - 32.0).abs() < 1e-9);
        assert!((compression_ratio(n * 2, 2048, 30, 4) - 64.0).abs() < 1e-9);
        assert!((compression_ratio(n * 4, 4096, 30, 4) - 128.0).abs() < 1e-9);
    }

    #[test]
    fn compression_ratio_bounded_by_slot_count() {
        for n in [1u64, 10, 31, 32, 33, 100_000] {
            let r = compression_ratio(n, 1024, 30, 4);
            assert!((1.0..=32.0).contains(&r), "n={n}: {r}");
        }
        assert_eq!(compression_ratio(0, 1024, 30, 4), 1.0);
    }

    #[test]
    fn psu_bounded_by_one_and_improves_with_fill() {
        let sparse = plaintext_space_utilization(1, 1024, 30, 4);
        let dense = plaintext_space_utilization(32 * 50, 1024, 30, 4);
        assert!(sparse > 0.0 && sparse < dense);
        assert!(dense <= 1.0 + 1e-12);
        assert_eq!(plaintext_space_utilization(0, 1024, 30, 4), 0.0);
    }

    #[test]
    fn ac_bc_equals_compression_ratio() {
        assert_eq!(
            ac_bc(1000, 2048, 30, 4),
            compression_ratio(1000, 2048, 30, 4)
        );
    }

    #[test]
    fn ghe_model_favors_gpu_for_large_batches() {
        let model = GheModel {
            beta_cpu: 2.7e-3,     // ~370 ops/s at 1024 bits (Table IV FATE)
            beta_transfer: 6e-11, // 16 GB/s
            beta_gpu: 1.9,        // one full wave of 1024-bit ops
            t_max: 82 * 1536,
        };
        // A batch of 100k encryptions (256-byte ciphertexts out).
        let n = 100_000u64;
        let ac = model.ac_ghe(n, n * 32, n * 2048);
        assert!(ac > 50.0, "GHE acceleration too small: {ac}");
        // A single operation cannot amortize the transfer + wave cost.
        let ac1 = model.ac_ghe(1, 32, 2048);
        assert!(ac1 < ac);
    }

    #[test]
    fn total_acceleration_multiplies() {
        assert_eq!(total_acceleration(100.0, 32.0), 3200.0);
    }

    #[test]
    fn guard_bits_matches_codec() {
        for p in [1u32, 2, 3, 4, 5, 16, 64, 100] {
            let cfg = codec::QuantizerConfig {
                alpha: 1.0,
                r_bits: 8,
                participants: p,
                clip: false,
            };
            assert_eq!(guard_bits(p), cfg.guard_bits(), "p={p}");
        }
    }
}
