//! The FLBooster resource manager (paper Sec. IV-A2).
//!
//! > "the resource manager stores the common block sizes and adjusts the
//! > block size by allocating the corresponding thread numbers in stream
//! > multiprocessors (SMs) according to the number of tasks, fully using
//! > the resources in the thread pool. ... Besides, the resource manager
//! > allocates an appropriate number of registers and memory size used by
//! > each thread based on tasks ... the resource manager can improve
//! > performance by combining branch issues or executing the branch code
//! > as a warp."
//!
//! Given a kernel's per-thread resource demands and a task count, the
//! manager picks the block size (from its table of common sizes) that
//! maximizes SM occupancy and minimizes tail waves, applies the branch
//! policy to the register demand, and emits a [`LaunchPlan`] the device
//! executes and accounts.

use crate::config::DeviceConfig;
use crate::kernel::KernelSpec;

/// Which per-SM resource capped the number of resident blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccupancyLimit {
    /// Thread slots per SM.
    Threads,
    /// Register file size.
    Registers,
    /// Hardware resident-block limit.
    Blocks,
}

/// The grid and occupancy decision for one launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchPlan {
    /// Threads per block chosen from the common-size table.
    pub threads_per_block: u32,
    /// Number of blocks in the grid.
    pub num_blocks: u32,
    /// Total threads requested by the launch (items × lanes).
    pub total_threads: u64,
    /// Blocks co-resident on one SM under the binding resource limit.
    pub blocks_per_sm: u32,
    /// Resident threads per SM (`blocks_per_sm × threads_per_block`).
    pub resident_threads_per_sm: u32,
    /// Occupancy: resident threads / max threads per SM.
    pub occupancy: f64,
    /// Register demand per thread after the branch policy was applied.
    pub effective_registers_per_thread: u32,
    /// The resource that bounded `blocks_per_sm`.
    pub limited_by: OccupancyLimit,
    /// Number of sequential waves needed to drain the grid.
    pub waves: u32,
}

impl LaunchPlan {
    /// Threads executing concurrently across the whole device.
    pub fn concurrent_threads(&self, cfg: &DeviceConfig) -> u64 {
        (self.resident_threads_per_sm as u64 * cfg.num_sms as u64).min(self.total_threads)
    }
}

/// Block-size selection policy.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BlockPolicy {
    /// Search the common-size table for the best occupancy (FLBooster).
    Adaptive(Vec<u32>),
    /// Always use one size (the ablation baseline).
    Fixed(u32),
}

/// The resource manager.
#[derive(Debug, Clone)]
pub struct ResourceManager {
    policy: BlockPolicy,
}

impl Default for ResourceManager {
    fn default() -> Self {
        Self::new()
    }
}

/// Register-demand multiplier when a split warp must hold both branch
/// arms live ("double or even several times the number of registers").
const WARP_SPLIT_REGISTER_FACTOR: u32 = 2;

impl ResourceManager {
    /// FLBooster's manager: adaptive block sizing + branch combining.
    pub fn new() -> Self {
        ResourceManager {
            policy: BlockPolicy::Adaptive(vec![32, 64, 128, 256, 512, 1024]),
        }
    }

    /// Ablation variant: a fixed block size and no branch handling —
    /// what a naive GPU port (HAFLO-style) would do.
    pub fn fixed(block_size: u32) -> Self {
        // Documented precondition mirroring the CUDA launch constraint.
        // flcheck: allow(pf-assert)
        assert!(
            block_size > 0 && block_size.is_multiple_of(32),
            "block must be whole warps"
        );
        ResourceManager {
            policy: BlockPolicy::Fixed(block_size),
        }
    }

    /// Whether divergent branches are combined/warp-executed instead of
    /// letting the warp split (which multiplies register demand): the
    /// adaptive manager combines, a fixed one splits.
    pub fn branch_combining(&self) -> bool {
        matches!(self.policy, BlockPolicy::Adaptive(_))
    }

    /// Plans a launch of `items` work items of `spec` on `cfg`.
    pub fn plan(&self, cfg: &DeviceConfig, spec: &KernelSpec, items: usize) -> LaunchPlan {
        let total_threads = (items as u64).max(1) * spec.lanes_per_item.max(1) as u64;
        let effective_regs = self.effective_registers(cfg, spec);

        match &self.policy {
            BlockPolicy::Fixed(size) => {
                self.plan_with_block(cfg, total_threads, *size, effective_regs)
            }
            BlockPolicy::Adaptive(sizes) => {
                // Pick the candidate maximizing occupancy; tie-break on
                // fewer waves (less tail underfill), then smaller blocks
                // (finer-grained balancing across SMs).
                let mut best: Option<LaunchPlan> = None;
                let lanes = spec.lanes_per_item.max(1);
                for &size in sizes {
                    // A block must host whole items (size >= lanes) or an
                    // item must span whole blocks (lanes % size == 0);
                    // otherwise items would straddle block boundaries.
                    if size < lanes && !lanes.is_multiple_of(size) {
                        continue;
                    }
                    // Skip block sizes whose register demand cannot host
                    // even one resident block: those spill to local memory
                    // and a competent manager avoids them.
                    if (effective_regs as u64) * (size as u64) > cfg.registers_per_sm as u64 {
                        continue;
                    }
                    let cand = self.plan_with_block(cfg, total_threads, size, effective_regs);
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            (
                                cand.occupancy,
                                -(cand.waves as i64),
                                -(cand.threads_per_block as i64),
                            ) > (
                                b.occupancy,
                                -(b.waves as i64),
                                -(b.threads_per_block as i64),
                            )
                        }
                    };
                    if better {
                        best = Some(cand);
                    }
                }
                best.unwrap_or_else(|| {
                    // No table entry worked (e.g. very wide items): use the
                    // lane count rounded up to whole warps.
                    let block = lanes
                        .div_ceil(cfg.warp_size)
                        .saturating_mul(cfg.warp_size)
                        .min(cfg.max_threads_per_sm);
                    self.plan_with_block(cfg, total_threads, block, effective_regs)
                })
            }
        }
    }

    /// Register demand after the branch policy: a divergent kernel whose
    /// warps the manager does not recombine needs registers for both
    /// branch arms.
    fn effective_registers(&self, cfg: &DeviceConfig, spec: &KernelSpec) -> u32 {
        let base = spec.registers_per_thread.max(1);
        let regs = if spec.divergence > 0.0 && !self.branch_combining() {
            base.saturating_mul(WARP_SPLIT_REGISTER_FACTOR)
        } else {
            base
        };
        regs.min(cfg.max_registers_per_thread)
    }

    fn plan_with_block(
        &self,
        cfg: &DeviceConfig,
        total_threads: u64,
        threads_per_block: u32,
        effective_regs: u32,
    ) -> LaunchPlan {
        let tpb = threads_per_block.min(cfg.max_threads_per_sm);
        let num_blocks = u32::try_from(total_threads.div_ceil(u64::from(tpb))).unwrap_or(u32::MAX);

        let by_threads = cfg.max_threads_per_sm / tpb;
        let by_regs = cfg.registers_per_sm / (effective_regs * tpb).max(1);
        let by_blocks = cfg.max_blocks_per_sm;

        let (blocks_per_sm, limited_by) = [
            (by_threads, OccupancyLimit::Threads),
            (by_regs, OccupancyLimit::Registers),
            (by_blocks, OccupancyLimit::Blocks),
        ]
        .into_iter()
        .min_by_key(|&(v, _)| v)
        .unwrap_or((by_blocks, OccupancyLimit::Blocks));

        // At least one block is always resident: a real device spills
        // registers to local memory rather than refusing the launch, but a
        // spilled block delivers far fewer useful cycles — penalize its
        // effective occupancy quadratically in the register deficit.
        let blocks_per_sm = blocks_per_sm.min(by_blocks).max(1);
        let resident = blocks_per_sm * tpb;
        let reg_fit =
            (cfg.registers_per_sm as f64 / (effective_regs as f64 * resident as f64)).min(1.0);
        let occupancy = resident as f64 / cfg.max_threads_per_sm as f64 * reg_fit * reg_fit;
        let device_resident = (blocks_per_sm.max(1) as u64) * cfg.num_sms as u64;
        // `device_resident >= 1`, so `waves <= num_blocks`, a `u32`.
        let waves =
            u32::try_from(u64::from(num_blocks).div_ceil(device_resident)).unwrap_or(u32::MAX);

        LaunchPlan {
            threads_per_block: tpb,
            num_blocks,
            total_threads,
            blocks_per_sm,
            resident_threads_per_sm: resident,
            occupancy,
            effective_registers_per_thread: effective_regs,
            limited_by,
            waves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lanes: u32, regs: u32) -> KernelSpec {
        KernelSpec {
            name: "test",
            lanes_per_item: lanes,
            registers_per_thread: regs,
            divergence: 0.0,
        }
    }

    #[test]
    fn small_register_kernel_is_thread_limited() {
        let cfg = DeviceConfig::rtx3090();
        let rm = ResourceManager::new();
        let p = rm.plan(&cfg, &spec(1, 16), 1_000_000);
        assert_eq!(p.limited_by, OccupancyLimit::Threads);
        assert!(
            (p.occupancy - 1.0).abs() < 1e-9,
            "occupancy {}",
            p.occupancy
        );
    }

    #[test]
    fn heavy_register_kernel_is_register_limited() {
        let cfg = DeviceConfig::rtx3090();
        let rm = ResourceManager::new();
        // 255 regs/thread: 65536/255 ≈ 257 threads/SM max.
        let p = rm.plan(&cfg, &spec(1, 255), 1_000_000);
        assert_eq!(p.limited_by, OccupancyLimit::Registers);
        assert!(p.occupancy < 0.25, "occupancy {}", p.occupancy);
    }

    #[test]
    fn occupancy_falls_as_registers_grow() {
        // The Fig.-6 mechanism: more registers per thread (bigger key)
        // => fewer resident threads => lower occupancy.
        let cfg = DeviceConfig::rtx3090();
        let rm = ResourceManager::new();
        let occ: Vec<f64> = [32u32, 64, 128, 255]
            .iter()
            .map(|&r| rm.plan(&cfg, &spec(1, r), 100_000).occupancy)
            .collect();
        for w in occ.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "occupancy not monotone: {occ:?}");
        }
        assert!(occ[3] < occ[0]);
    }

    #[test]
    fn adaptive_beats_or_matches_fixed() {
        let cfg = DeviceConfig::rtx3090();
        let s = spec(4, 96);
        let adaptive = ResourceManager::new().plan(&cfg, &s, 50_000);
        for fixed_size in [32u32, 128, 1024] {
            let fixed = ResourceManager::fixed(fixed_size).plan(&cfg, &s, 50_000);
            assert!(
                adaptive.occupancy >= fixed.occupancy - 1e-12,
                "adaptive {} < fixed({fixed_size}) {}",
                adaptive.occupancy,
                fixed.occupancy
            );
        }
    }

    #[test]
    fn branch_splitting_doubles_registers_without_combining() {
        let cfg = DeviceConfig::rtx3090();
        let mut s = spec(1, 64);
        s.divergence = 0.3;
        let with = ResourceManager::new().plan(&cfg, &s, 1000);
        // Same grid, split warps.
        let without = ResourceManager::fixed(with.threads_per_block).plan(&cfg, &s, 1000);
        assert_eq!(with.effective_registers_per_thread, 64);
        assert_eq!(without.effective_registers_per_thread, 128);
        assert!(without.occupancy <= with.occupancy);
    }

    #[test]
    fn waves_cover_all_blocks() {
        let cfg = DeviceConfig::test_tiny();
        let rm = ResourceManager::new();
        let p = rm.plan(&cfg, &spec(1, 8), 10_000);
        let device_blocks = p.blocks_per_sm as u64 * cfg.num_sms as u64;
        assert!(p.waves as u64 * device_blocks >= p.num_blocks as u64);
        assert!((p.waves as u64 - 1) * device_blocks < p.num_blocks as u64);
    }

    #[test]
    fn lanes_do_not_straddle_blocks() {
        let cfg = DeviceConfig::rtx3090();
        let rm = ResourceManager::new();
        // 48 lanes per item: blocks must host whole items or items must
        // span whole blocks.
        let p = rm.plan(&cfg, &spec(48, 32), 100);
        assert!(
            p.threads_per_block >= 48 || 48 % p.threads_per_block == 0,
            "block {} incompatible with 48 lanes",
            p.threads_per_block
        );
    }

    #[test]
    fn zero_items_still_plans_one_thread() {
        let cfg = DeviceConfig::test_tiny();
        let p = ResourceManager::new().plan(&cfg, &spec(1, 8), 0);
        assert_eq!(p.total_threads, 1);
        assert!(p.num_blocks >= 1);
    }

    #[test]
    #[should_panic(expected = "whole warps")]
    fn fixed_block_must_be_warp_multiple() {
        ResourceManager::fixed(100);
    }
}
