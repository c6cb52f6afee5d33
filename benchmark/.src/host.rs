//! The host reference: fixed pure-integer work in the benchmark itself.
//!
//! The measuring host is a small virtual machine whose neighbours slow it
//! by tens of percent for seconds to minutes at a time (README, "Noise
//! study"), so a raw wall-clock figure says as much about the minute it
//! was taken in as about the program. Every timed sample is therefore
//! followed at once by one reference sample of similar length and the
//! same width, and wall-clock metrics are reported relative to it.

use std::hint::black_box;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

const SPIN_LIMBS: usize = 32;

/// Limb multiplications in one spin pass.
pub const SPIN_PASS_MACS: u64 = (SPIN_LIMBS * SPIN_LIMBS) as u64;

/// One pass of a fixed 32-limb schoolbook multiply-accumulate: pure
/// integer work that touches no product code and no heap.
fn spin_pass(a: &[u64; SPIN_LIMBS], b: &[u64; SPIN_LIMBS]) -> u64 {
    let mut acc = [0u64; 2 * SPIN_LIMBS];
    for i in 0..SPIN_LIMBS {
        let mut carry = 0u64;
        for j in 0..SPIN_LIMBS {
            let t = a[i] as u128 * b[j] as u128 + acc[i + j] as u128 + carry as u128;
            acc[i + j] = t as u64;
            carry = (t >> 64) as u64;
        }
        acc[i + SPIN_LIMBS] = carry;
    }
    acc.iter().fold(0, |x, y| x ^ y)
}

/// `passes` dependent spin passes on the calling thread.
pub fn spin(passes: u32) -> u64 {
    let mut a = [0x9E37_79B9_7F4A_7C15u64; SPIN_LIMBS];
    let b = [0xD1B5_4A32_D192_ED03u64; SPIN_LIMBS];
    for _ in 0..passes {
        a[0] ^= spin_pass(black_box(&a), black_box(&b));
    }
    a[0]
}

/// Joins per reference sample.
const REFERENCE_ROUNDS: u32 = 8;

/// One workload's reference sample: [`REFERENCE_ROUNDS`] rounds, each of
/// `tasks` equal chunks of spin passes that `threads` threads pull until
/// none is left, with a join after each round.
///
/// That is how the product's pool runs one batch: workers are started per
/// drive, take items as they become free and the caller waits for the
/// slowest, several times per unit. With the workload's own batch size as
/// `tasks`, a stall on one vCPU costs the reference what it costs the
/// unit: everything when a batch has two items, little when it has
/// thirty-two.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Spin passes per thread and sample, before rounding to whole chunks.
    pub passes: u32,
    pub tasks: u32,
    pub threads: usize,
    /// What one pass takes on a quiet host of the measuring class; scales
    /// ratios to the reference back into time.
    pub nominal_pass_ns: f64,
}

impl Reference {
    /// Passes in one chunk.
    fn chunk_passes(&self) -> u32 {
        let per_round = self.passes as u64 * self.threads as u64 / REFERENCE_ROUNDS as u64;
        (per_round / self.tasks.max(1) as u64).max(1) as u32
    }

    /// Milliseconds one reference sample takes on a quiet host whose
    /// threads each run on a core of their own.
    pub fn nominal_ms(&self) -> f64 {
        let chunks_per_thread = (self.tasks.max(1) as usize).div_ceil(self.threads.max(1));
        let passes =
            REFERENCE_ROUNDS as u64 * chunks_per_thread as u64 * self.chunk_passes() as u64;
        passes as f64 * self.nominal_pass_ns / 1e6
    }

    /// Runs one reference sample; returns its wall-clock milliseconds.
    pub fn run_ms(&self) -> f64 {
        let chunk = self.chunk_passes();
        let start = Instant::now();
        for _ in 0..REFERENCE_ROUNDS {
            let next = AtomicU32::new(0);
            let work = || {
                // Relaxed: the counter hands out chunk numbers and
                // publishes no other data.
                while next.fetch_add(1, Ordering::Relaxed) < self.tasks.max(1) {
                    black_box(spin(chunk));
                }
            };
            std::thread::scope(|scope| {
                // The caller is one of the threads, as it is in the
                // product's pool. Scoped threads are joined before
                // `scope` returns.
                for _ in 1..self.threads {
                    scope.spawn(work);
                }
                work();
            });
        }
        start.elapsed().as_secs_f64() * 1e3
    }

    /// `samples[i]` was followed at once by reference sample `refs[i]`:
    /// the median of their ratios, scaled to quiet-host milliseconds. The
    /// pairing cancels what the host was doing that second, the median
    /// ignores the pairs a burst hit on one side only.
    pub fn normalize_ms(&self, samples_ms: &[f64], refs_ms: &[f64]) -> f64 {
        let ratios: Vec<f64> = samples_ms
            .iter()
            .zip(refs_ms)
            .map(|(s, r)| s / r.max(f64::MIN_POSITIVE))
            .collect();
        crate::stats::median(&ratios) * self.nominal_ms()
    }

    /// How much slower than a quiet host the reference samples ran.
    pub fn slowdown(&self, refs_ms: &[f64]) -> f64 {
        crate::stats::median(refs_ms) / self.nominal_ms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_is_deterministic_and_depends_on_the_pass_count() {
        assert_eq!(spin(3), spin(3));
        assert_ne!(spin(3), spin(4));
    }

    #[test]
    fn normalisation_cancels_a_slowdown_shared_by_sample_and_reference() {
        let r = Reference {
            passes: 100_003,
            tasks: 5,
            threads: 1,
            nominal_pass_ns: 1000.0,
        };
        // 8 rounds of 5 chunks of 2500 passes: what does not fill a chunk
        // is not run and not counted.
        assert_eq!(r.nominal_ms(), 100.0);
        // Two threads share three chunks per round as two and one.
        let wide = Reference {
            passes: 12_000,
            tasks: 3,
            threads: 2,
            nominal_pass_ns: 1000.0,
        };
        assert_eq!(wide.nominal_ms(), 16.0);
        // A 250 ms unit on a quiet host, seen through three host states
        // and one burst that hit only the sample.
        let samples = [250.0, 375.0, 500.0, 900.0, 250.0];
        let refs = [100.0, 150.0, 200.0, 100.0, 100.0];
        assert_eq!(r.normalize_ms(&samples, &refs), 250.0);
        assert_eq!(r.slowdown(&refs), 1.0);
        assert_eq!(r.slowdown(&[150.0, 150.0, 400.0]), 1.5);
    }

    #[test]
    fn a_reference_sample_runs_on_every_thread_and_takes_time() {
        let r = Reference {
            passes: 2_000,
            tasks: 3,
            threads: 2,
            nominal_pass_ns: 880.0,
        };
        assert!(r.run_ms() > 0.0);
    }
}
