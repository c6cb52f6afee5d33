//! GPU-HE: batched homomorphic operations (paper Sec. IV-A).
//!
//! The paper's key observation is that HE operations over a gradient
//! vector are *independent*, so encryption, decryption, and homomorphic
//! computation parallelize perfectly across GPU threads. This module is
//! laid out the way that argument runs — **operations once, schedule
//! twice**:
//!
//! - Each batched operation of [`HeBackend`] is written exactly once, as
//!   a provided method: its kernel name, its transfer bytes, its
//!   divergence stride, and a per-item body returning the item's result
//!   and the limb-level operations it cost. The body performs the *real*
//!   cryptographic computation whatever runs it.
//! - A [`Schedule`] is the single place the backends differ — how the
//!   items are fanned out and how simulated time is charged for them:
//!   - [`Schedule::Cpu`] — the FATE-style baseline: a serial per-value
//!     loop, simulated time `Σops · β_cpu` per the paper's Eq. 10
//!     numerator.
//!   - [`Schedule::Gpu`] — the GHE layer: every batch becomes one kernel
//!     launch on a [`gpu_sim::Device`], with the kernel spec (lanes,
//!     registers) derived from the key size, so occupancy and SM
//!     utilization respond to the key size exactly as in the paper's
//!     Fig. 6.
//!
//! [`CpuHe`] and [`GpuHe`] are a name, a schedule and an optional
//! blinding pool; nothing else distinguishes them.

use std::sync::Arc;

use gpu_sim::{Device, KernelSpec};
use mpint::Natural;
use rayon::prelude::*;

use crate::paillier::{Ciphertext, ObfuscatorPool, PaillierPrivateKey, PaillierPublicKey};
use crate::{Error, Result};

/// Timing and volume accounting for one batched HE call. `Schedule::run`
/// is the only way a batched operation executes, and it returns one of
/// these beside the results: a caller that drops it has dropped the cost.
#[must_use = "the simulated cost of a batched HE call: charge it or it is lost"]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HeTiming {
    /// Simulated seconds the operation took on its backend.
    pub sim_seconds: f64,
    /// Limb-level operations executed.
    pub ops: u64,
    /// Items processed.
    pub items: u64,
}

/// A batched homomorphic-encryption execution backend: a
/// [`name`](Self::name), a [`schedule`](Self::schedule) and an optional
/// blinding [`pool`](Self::pool). The operations are provided methods,
/// the same on every backend.
pub trait HeBackend: Send + Sync {
    /// Backend name for reports ("cpu", "gpu").
    fn name(&self) -> &'static str;

    /// Where this backend's batches run and how their time is charged.
    fn schedule(&self) -> Schedule<'_>;

    /// The blinding-factor pool batch encryption draws from, if any.
    fn pool(&self) -> Option<&ObfuscatorPool>;

    /// Encrypts a batch of plaintexts. `seed` derives per-item blinding
    /// randomness deterministically (each item gets an independent
    /// stream, matching the paper's per-thread RNG).
    fn encrypt_batch(
        &self,
        pk: &PaillierPublicKey,
        plaintexts: &[Natural],
        seed: u64,
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        let pool = self.pool();
        let per_item_ops = match pool {
            Some(_) => pk.encrypt_pooled_op_estimate(),
            None => pk.encrypt_op_estimate(),
        };
        let kernel = Kernel {
            name: "paillier_encrypt",
            key_bits: pk.key_bits,
            // Plaintexts go up (quantized words), ciphertexts come back.
            bytes_in: plaintexts
                .iter()
                .map(|m| m.wire_size_bytes().max(4) as u64)
                .sum(),
            bytes_out: ct_bytes(pk) * plaintexts.len() as u64,
            divergence_stride: 2,
        };
        self.schedule().run(&kernel, plaintexts, |i, m| {
            (encrypt_item(pk, pool, m, seed, i), per_item_ops)
        })
    }

    /// Decrypts a batch of ciphertexts (CRT fast path).
    fn decrypt_batch(
        &self,
        sk: &PaillierPrivateKey,
        ciphertexts: &[Ciphertext],
    ) -> Result<(Vec<Natural>, HeTiming)> {
        let per_item_ops = sk.decrypt_op_estimate();
        let pt_bytes = (sk.public.n.bit_len() as u64).div_ceil(8);
        let kernel = Kernel {
            name: "paillier_decrypt",
            key_bits: sk.public.key_bits,
            bytes_in: ct_bytes(&sk.public) * ciphertexts.len() as u64,
            bytes_out: pt_bytes * ciphertexts.len() as u64,
            divergence_stride: 2,
        };
        self.schedule().run(&kernel, ciphertexts, |_, c| {
            (sk.decrypt_crt(c), per_item_ops)
        })
    }

    /// Pairwise homomorphic addition of two equal-length batches — the
    /// two-batch [`sum_batches`](Self::sum_batches); misaligned batches
    /// are an [`Error::InvalidParameter`].
    fn add_batch(
        &self,
        pk: &PaillierPublicKey,
        a: &[Ciphertext],
        b: &[Ciphertext],
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        self.sum_batches(pk, &[a, b])
    }

    /// Slot-wise homomorphic sum of any number of equal-length batches in
    /// one launch: slot `j` of the result is
    /// [`checked_sum`](PaillierPublicKey::checked_sum) over slot `j` of
    /// every batch, charged as the `batches − 1` additions it replaces.
    /// Misaligned batches are an [`Error::InvalidParameter`]; no batches
    /// yield an empty output. `items` in the timing counts slots.
    fn sum_batches(
        &self,
        pk: &PaillierPublicKey,
        batches: &[&[Ciphertext]],
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        let slots = batches.first().map_or(0, |b| b.len());
        if batches.iter().any(|b| b.len() != slots) {
            return Err(Error::InvalidParameter(
                "add_batch requires equal-length batches",
            ));
        }
        let per_slot_ops = pk.add_op_estimate() * batches.len().saturating_sub(1) as u64;
        let kernel = Kernel {
            name: "paillier_add",
            key_bits: pk.key_bits,
            // Homomorphic computation keeps data resident (paper Fig. 4
            // phase ⑩–⑫): operands were already on-device from prior
            // phases; only the key parameters move, and the result stays.
            bytes_in: ct_bytes(pk),
            bytes_out: 0,
            divergence_stride: 4,
        };
        let slot_indices: Vec<usize> = (0..slots).collect();
        self.schedule().run(&kernel, &slot_indices, |_, &j| {
            (pk.checked_sum(&column(batches, j)), per_slot_ops)
        })
    }

    /// Folds each group of ciphertexts into one by homomorphic addition,
    /// one [`checked_sum`](PaillierPublicKey::checked_sum) chain per group
    /// and one ciphertext back per group: an empty group yields the
    /// unblinded encryption of zero. SecureBoost's histogram reply is
    /// [`fold_packed`](Self::fold_packed), which sends nothing for an
    /// empty bucket.
    fn fold_groups(
        &self,
        pk: &PaillierPublicKey,
        groups: &[Vec<Ciphertext>],
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        let per_add_ops = pk.add_op_estimate();
        let kernel = Kernel {
            name: "paillier_fold",
            key_bits: pk.key_bits,
            // Operands are assumed device-resident (they arrive from a
            // prior encrypt); every group's sum comes back, empty or not.
            bytes_in: 0,
            bytes_out: ct_bytes(pk) * groups.len() as u64,
            divergence_stride: 2,
        };
        self.schedule().run(&kernel, groups, |_, group| {
            let members: Vec<&Ciphertext> = group.iter().collect();
            (pk.checked_sum(&members), per_add_ops * group.len() as u64)
        })
    }

    /// Folds each non-empty group and packs the sums, a run at a time,
    /// into shared plaintext words — a SecureBoost host's whole reply for
    /// one tree node. Empty groups are dropped; the `k` sums that remain
    /// are cut in index order into `⌈k / capacity⌉` runs of near-equal
    /// length ([`pack_capacity`](PaillierPublicKey::pack_capacity) slots
    /// fit a word), and each run is one item of one launch:
    /// [`checked_sum`](PaillierPublicKey::checked_sum) per group, then
    /// [`checked_pack`](PaillierPublicKey::checked_pack) with the run's
    /// `j`-th sum in slot `j`. One ciphertext per run comes back;
    /// [`unpack_runs`](PaillierPublicKey::unpack_runs) makes the same cut
    /// on the decrypted words. The caller vouches that every group's
    /// plaintext sum stays below `2^slot_bits`. Nothing to fold launches
    /// nothing.
    fn fold_packed(
        &self,
        pk: &PaillierPublicKey,
        groups: &[Vec<&Ciphertext>],
        slot_bits: u32,
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        let filled: Vec<&[&Ciphertext]> = groups
            .iter()
            .filter(|g| !g.is_empty())
            .map(Vec::as_slice)
            .collect();
        let runs: Vec<&[&[&Ciphertext]]> = pk
            .pack_runs(filled.len(), slot_bits)?
            .into_iter()
            .filter_map(|run| filled.get(run))
            .collect();
        if runs.is_empty() {
            return Ok((Vec::new(), HeTiming::default()));
        }
        let per_add_ops = pk.add_op_estimate();
        let kernel = Kernel {
            name: "paillier_fold_pack",
            key_bits: pk.key_bits,
            // Operands are device-resident from the broadcast that
            // delivered them; one packed word per run comes back.
            bytes_in: 0,
            bytes_out: ct_bytes(pk) * runs.len() as u64,
            divergence_stride: 2,
        };
        self.schedule().run(&kernel, &runs, |_, run| {
            let members: usize = run.iter().map(|group| group.len()).sum();
            let ops = per_add_ops * members as u64 + pk.pack_op_estimate(run.len(), slot_bits);
            let packed = run
                .iter()
                .map(|group| pk.checked_sum(group))
                .collect::<Result<Vec<Ciphertext>>>()
                .and_then(|sums| pk.checked_pack(&sums.iter().collect::<Vec<_>>(), slot_bits));
            (packed, ops)
        })
    }

    /// Weighted aggregation across participant batches:
    /// `out[j] = ∏ᵢ batches[i][j] ^ weights[i] mod n²` — one Bos–Coster
    /// chain per slot ([`PaillierPublicKey::weighted_sum`]), each on its
    /// own slot task, the chain and its `R`-power fix-up computed once
    /// for the whole launch ([`PaillierPublicKey::weighted_pass`]). Each
    /// slot is charged
    /// [`weighted_sum_op_estimate`](PaillierPublicKey::weighted_sum_op_estimate)
    /// of that plan, the chain it replays, and slot 0 also the launch's
    /// `R`-power
    /// ([`weighted_fixup_op_estimate`](PaillierPublicKey::weighted_fixup_op_estimate)).
    /// Weights are public sample counts. A weight count or batch length
    /// that does not line up is an [`Error::InvalidParameter`]; an empty
    /// batch list yields an empty output.
    fn weighted_aggregate(
        &self,
        pk: &PaillierPublicKey,
        batches: &[&[Ciphertext]],
        weights: &[u64],
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        if batches.len() != weights.len() {
            return Err(Error::InvalidParameter(
                "weighted_aggregate requires one weight per batch",
            ));
        }
        let slots = batches.first().map_or(0, |b| b.len());
        if batches.iter().any(|b| b.len() != slots) {
            return Err(Error::InvalidParameter(
                "weighted_aggregate requires equal-length batches",
            ));
        }
        let wnat: Vec<Natural> = weights.iter().map(|&w| Natural::from(w)).collect();
        let (plan, fixup) = pk.weighted_pass(&wnat);
        let per_slot_ops = pk.weighted_sum_op_estimate(&plan);
        let fixup_ops = pk.weighted_fixup_op_estimate(&plan);
        let kernel = Kernel {
            name: "paillier_weighted_sum",
            key_bits: pk.key_bits,
            // Participant ciphertexts are device-resident from prior
            // phases (paper Fig. 4 ⑩–⑫); only the weights go up and the
            // aggregated slots come back.
            bytes_in: 8 * weights.len() as u64,
            bytes_out: ct_bytes(pk) * slots as u64,
            divergence_stride: 2,
        };
        let slot_indices: Vec<usize> = (0..slots).collect();
        self.schedule().run(&kernel, &slot_indices, |_, &j| {
            let sum = pk.weighted_sum_column(&column(batches, j), &plan, &fixup);
            (sum, per_slot_ops + if j == 0 { fixup_ops } else { 0 })
        })
    }
}

/// What one batched operation tells the [`Schedule`] about itself,
/// beside its items and per-item body.
struct Kernel {
    name: &'static str,
    key_bits: u32,
    /// Bytes copied to the device before the launch.
    bytes_in: u64,
    /// Bytes copied back after it.
    bytes_out: u64,
    /// Every `divergence_stride`-th item takes the data-dependent branch.
    divergence_stride: usize,
}

/// Slot `j` of every batch, borrowed. The batched folds check that every
/// batch holds the slot before they ask, so the column has one ciphertext
/// per batch.
fn column<'a>(batches: &[&'a [Ciphertext]], j: usize) -> Vec<&'a Ciphertext> {
    batches.iter().filter_map(|b| b.get(j)).collect()
}

/// Wire bytes of one ciphertext under `pk`.
fn ct_bytes(pk: &PaillierPublicKey) -> u64 {
    (pk.n_squared.bit_len() as u64).div_ceil(8)
}

/// Where a batch runs and how its simulated time is charged — the one
/// place the backends differ.
pub enum Schedule<'a> {
    /// The paper's FATE baseline. Simulated time charges `β_cpu` per
    /// limb-level operation *serially* (FATE's per-value Python loop);
    /// the computation itself runs on the host thread pool so that large
    /// benchmark batches finish quickly — wall-clock and simulated time
    /// are decoupled throughout the harness.
    Cpu {
        /// Seconds per limb-level operation (`β_cpu`).
        seconds_per_op: f64,
    },
    /// The GHE layer: one kernel launch on the simulated device, charged
    /// by [`timing_from`].
    Gpu(&'a Device),
}

impl Schedule<'_> {
    /// Runs `body(index, item)` over `items` and charges the limb-level
    /// operations each item reports.
    fn run<I: Sync, R: Send>(
        &self,
        kernel: &Kernel,
        items: &[I],
        body: impl Fn(usize, &I) -> (Result<R>, u64) + Sync,
    ) -> Result<(Vec<R>, HeTiming)> {
        match *self {
            Schedule::Cpu { seconds_per_op } => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "drive home: a batched HE launch on the CPU schedule"
                )]
                let results: Vec<(Result<R>, u64)> = items
                    .par_iter()
                    .enumerate()
                    .map(|(i, item)| body(i, item))
                    .collect();
                let ops: u64 = results.iter().map(|(_, ops)| ops).sum();
                let out: Result<Vec<R>> = results.into_iter().map(|(r, _)| r).collect();
                let timing = HeTiming {
                    sim_seconds: ops as f64 * seconds_per_op,
                    ops,
                    items: items.len() as u64,
                };
                Ok((out?, timing))
            }
            Schedule::Gpu(device) => {
                let spec = GpuHe::kernel_spec(kernel.name, kernel.key_bits, true);
                let (results, report) = device.launch(
                    &spec,
                    items,
                    kernel.bytes_in,
                    kernel.bytes_out,
                    |i, item| {
                        let (out, ops) = body(i, item);
                        // A launched thread does at least one op, even
                        // over an empty group.
                        gpu_sim::kernel::outcome_from_result(
                            out,
                            ops.max(1),
                            i % kernel.divergence_stride == 0,
                        )
                    },
                );
                let out: Result<Vec<R>> = results.into_iter().collect();
                Ok((out?, timing_from(&report, device.config())))
            }
        }
    }
}

/// Encrypts one batch item, computing its blinding factor here and
/// moving it into the encryption. With a pool, the factor is the pool's
/// fixed-base power for `(seed, index)` ([`ObfuscatorPool`]). With no
/// pool (the FATE / HAFLO baselines) it is `r^n` for the uniform `r` of
/// [`PaillierPublicKey::batch_blinding`], by the public route.
/// [`HeBackend::encrypt_batch`] charges the first the pooled encrypt and
/// the second the paper's full inline `r^n`, whatever the host paid.
fn encrypt_item(
    pk: &PaillierPublicKey,
    pool: Option<&ObfuscatorPool>,
    m: &Natural,
    seed: u64,
    index: usize,
) -> Result<Ciphertext> {
    let obf = match pool {
        Some(p) => p.blinding_power(seed, index),
        None => pk.precompute_obfuscator(&pk.batch_blinding(seed, index)),
    };
    pk.encrypt_with_obfuscator(m, obf)
}

/// CPU execution of HE batches — the paper's FATE baseline
/// ([`Schedule::Cpu`]). The default `β_cpu` is calibrated so 1024-bit
/// Paillier encryption throughput lands near the paper's Table IV FATE
/// row (~360 instances/s).
#[derive(Debug, Clone)]
pub struct CpuHe {
    /// Seconds per limb-level operation (`β_cpu`).
    pub seconds_per_op: f64,
    pool: Option<Arc<ObfuscatorPool>>,
}

/// Calibrated default `β_cpu` (see struct docs).
pub const DEFAULT_CPU_SECONDS_PER_OP: f64 = 2.0e-9;

impl Default for CpuHe {
    fn default() -> Self {
        CpuHe {
            seconds_per_op: DEFAULT_CPU_SECONDS_PER_OP,
            pool: None,
        }
    }
}

impl CpuHe {
    /// Attaches a blinding-factor pool: batch encryption draws each
    /// item's factor from it and is charged the pooled encrypt.
    pub fn with_pool(mut self, pool: Arc<ObfuscatorPool>) -> Self {
        self.pool = Some(pool);
        self
    }
}

impl HeBackend for CpuHe {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn schedule(&self) -> Schedule<'_> {
        Schedule::Cpu {
            seconds_per_op: self.seconds_per_op,
        }
    }

    fn pool(&self) -> Option<&ObfuscatorPool> {
        self.pool.as_deref()
    }
}

/// Batched HE dispatched through the GPU execution-model simulator — the
/// paper's GHE layer ([`Schedule::Gpu`]).
#[derive(Clone)]
pub struct GpuHe {
    device: Arc<Device>,
    pool: Option<Arc<ObfuscatorPool>>,
}

impl GpuHe {
    /// Wraps a simulated device.
    pub fn new(device: Arc<Device>) -> Self {
        GpuHe { device, pool: None }
    }

    /// Attaches a blinding-factor pool: batch encryption draws each
    /// item's factor from it and is charged the pooled encrypt.
    pub fn with_pool(mut self, pool: Arc<ObfuscatorPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The underlying device (for stats inspection).
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    /// Kernel spec for an HE operation over a `key_bits`-bit cryptosystem.
    ///
    /// Each work item is one HE operation executed by a 32-lane thread
    /// group (the paper's `T` threads); each lane holds `x = s/T` words of
    /// the four working operands in registers, so register demand — and
    /// with it occupancy, Fig. 6 — scales with the key size.
    pub fn kernel_spec(name: &'static str, key_bits: u32, ciphertext: bool) -> KernelSpec {
        let bits = if ciphertext { 2 * key_bits } else { key_bits };
        let s = bits.div_ceil(64); // operand limbs
        let lanes = 32u32;
        let x = s.div_ceil(lanes); // words per lane
        KernelSpec {
            name,
            lanes_per_item: lanes,
            // 4 working operands × x 64-bit words × 2 registers, plus
            // bookkeeping.
            registers_per_thread: 24 + 8 * x,
            shared_mem_per_block: 0,
            // The final conditional subtraction of Algorithm 2 is a
            // data-dependent branch taken by roughly half the warps.
            divergence: 0.5,
        }
    }
}

impl HeBackend for GpuHe {
    fn name(&self) -> &'static str {
        "gpu"
    }

    fn schedule(&self) -> Schedule<'_> {
        Schedule::Gpu(&self.device)
    }

    fn pool(&self) -> Option<&ObfuscatorPool> {
        self.pool.as_deref()
    }
}

/// Converts a launch report into HE timing under *epoch-amortized*
/// accounting: kernel time is charged at the launch's occupancy-limited
/// device throughput rather than its instantaneous batch width.
///
/// Rationale: the paper's epochs stream hundreds of thousands of HE
/// operations through the GPU back-to-back, so the device is saturated;
/// the harness's scaled-down batches would otherwise be dominated by
/// tail-wave underfill that the real workload never sees. Occupancy (and
/// with it every register/branch effect the resource manager controls)
/// still shapes the charged time; only the batch-width underfill is
/// amortized away. Launch reports and utilization statistics keep the
/// unamortized view.
fn timing_from(report: &gpu_sim::LaunchReport, cfg: &gpu_sim::DeviceConfig) -> HeTiming {
    let resident = (report.plan.resident_threads_per_sm as u64 * cfg.num_sms as u64).max(1) as f64;
    // Re-derive the divergence-penalized op count the device charged.
    let penalized = report.sim_kernel_seconds * report.plan.concurrent_threads(cfg).max(1) as f64
        / cfg.sec_per_thread_op;
    let kernel_seconds = penalized / resident * cfg.sec_per_thread_op;
    HeTiming {
        sim_seconds: report.sim_h2d_seconds + kernel_seconds + report.sim_d2h_seconds,
        ops: report.total_thread_ops,
        items: report.items as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paillier::PaillierKeyPair;
    use gpu_sim::DeviceConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn keys() -> PaillierKeyPair {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        PaillierKeyPair::generate(&mut rng, 128).unwrap()
    }

    fn gpu() -> GpuHe {
        GpuHe::new(Arc::new(Device::new(DeviceConfig::rtx3090())))
    }

    fn nats(vals: &[u64]) -> Vec<Natural> {
        vals.iter().map(|&v| Natural::from(v)).collect()
    }

    #[test]
    fn cpu_and_gpu_encrypt_same_plaintexts() {
        let k = keys();
        let ms = nats(&[1, 2, 3, 4, 5]);
        let (cpu_cts, _) = CpuHe::default().encrypt_batch(&k.public, &ms, 99).unwrap();
        let (gpu_cts, _) = gpu().encrypt_batch(&k.public, &ms, 99).unwrap();
        // Same seed => same per-item blinding => identical ciphertexts.
        assert_eq!(cpu_cts, gpu_cts);
        for (c, m) in cpu_cts.iter().zip(&ms) {
            assert_eq!(&k.private.decrypt(c).unwrap(), m);
        }
    }

    #[test]
    fn gpu_batch_roundtrip() {
        let k = keys();
        let g = gpu();
        let ms = nats(&[10, 20, 30, 40]);
        let (cts, enc_t) = g.encrypt_batch(&k.public, &ms, 7).unwrap();
        let (back, dec_t) = g.decrypt_batch(&k.private, &cts).unwrap();
        assert_eq!(back, ms);
        assert!(enc_t.sim_seconds > 0.0);
        assert!(dec_t.sim_seconds > 0.0);
        assert_eq!(enc_t.items, 4);
    }

    #[test]
    fn gpu_add_batch_is_homomorphic() {
        let k = keys();
        let g = gpu();
        let (ca, _) = g.encrypt_batch(&k.public, &nats(&[1, 2, 3]), 1).unwrap();
        let (cb, _) = g.encrypt_batch(&k.public, &nats(&[10, 20, 30]), 2).unwrap();
        let (sums, _) = g.add_batch(&k.public, &ca, &cb).unwrap();
        let (plains, _) = g.decrypt_batch(&k.private, &sums).unwrap();
        assert_eq!(plains, nats(&[11, 22, 33]));
    }

    #[test]
    fn gpu_is_simulated_faster_than_cpu_on_large_batches() {
        let k = keys();
        let ms = nats(&(0..512u64).collect::<Vec<_>>());
        let (_, cpu_t) = CpuHe::default().encrypt_batch(&k.public, &ms, 3).unwrap();
        let (_, gpu_t) = gpu().encrypt_batch(&k.public, &ms, 3).unwrap();
        assert!(
            gpu_t.sim_seconds < cpu_t.sim_seconds,
            "gpu {} !< cpu {}",
            gpu_t.sim_seconds,
            cpu_t.sim_seconds
        );
    }

    #[test]
    fn kernel_spec_registers_grow_with_key_size() {
        let r1 = GpuHe::kernel_spec("e", 1024, true).registers_per_thread;
        let r2 = GpuHe::kernel_spec("e", 2048, true).registers_per_thread;
        let r4 = GpuHe::kernel_spec("e", 4096, true).registers_per_thread;
        assert!(r1 < r2 && r2 < r4, "{r1} {r2} {r4}");
    }

    #[test]
    fn utilization_falls_with_key_size() {
        // The Fig.-6 trend, via occupancy of the planned kernels.
        let d = Device::new(DeviceConfig::rtx3090());
        let mut last = f64::INFINITY;
        for bits in [1024u32, 2048, 4096] {
            let spec = GpuHe::kernel_spec("enc", bits, true);
            let plan = d.manager().plan(d.config(), &spec, 100_000);
            assert!(plan.occupancy <= last, "occupancy rose at {bits}");
            last = plan.occupancy;
        }
    }

    #[test]
    fn device_stats_accumulate_he_launches() {
        let k = keys();
        let g = gpu();
        let (_, t2) = g.encrypt_batch(&k.public, &nats(&[1, 2]), 0).unwrap();
        let (cts, t1) = g.encrypt_batch(&k.public, &nats(&[3]), 1).unwrap();
        let (_, td) = g.decrypt_batch(&k.private, &cts).unwrap();
        assert_eq!((t2.items, t1.items, td.items), (2, 1, 1));
        let stats = g.device().stats();
        assert_eq!(stats.launches, 3);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
        let kernels: Vec<_> = stats.utilization_samples.iter().map(|s| s.kernel).collect();
        assert!(kernels.contains(&"paillier_encrypt"));
        assert!(kernels.contains(&"paillier_decrypt"));
    }

    #[test]
    fn misaligned_batches_are_typed_errors_on_both_backends() {
        let k = keys();
        let backends: [&dyn HeBackend; 2] = [&CpuHe::default(), &gpu()];
        for be in backends {
            let (ca, _) = be.encrypt_batch(&k.public, &nats(&[1]), 0).unwrap();
            let err = be.add_batch(&k.public, &ca, &[]).unwrap_err();
            assert_eq!(
                err,
                Error::InvalidParameter("add_batch requires equal-length batches")
            );
            assert_eq!(
                err.to_string(),
                "invalid parameter: add_batch requires equal-length batches"
            );
            let two = [ca.as_slice(), ca.as_slice()];
            assert_eq!(
                be.weighted_aggregate(&k.public, &two, &[1]).unwrap_err(),
                Error::InvalidParameter("weighted_aggregate requires one weight per batch")
            );
            let ragged = [ca.as_slice(), &[]];
            assert_eq!(
                be.weighted_aggregate(&k.public, &ragged, &[1, 2])
                    .unwrap_err(),
                Error::InvalidParameter("weighted_aggregate requires equal-length batches")
            );
        }
    }
}
