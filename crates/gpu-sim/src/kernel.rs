//! Kernel descriptions and launch reports.

use crate::resource::LaunchPlan;

/// Static description of a kernel, fixed at the call site.
///
/// The HE layer derives these from the cryptosystem parameters: e.g. the
/// CIOS kernel for a `k`-bit key uses `lanes_per_item = T` cooperating
/// threads each holding `x = s/T` words in registers, so
/// `registers_per_thread` grows with the key size — which is what makes SM
/// utilization fall at 2048/4096 bits in the paper's Fig. 6.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name for logs and stats.
    pub name: &'static str,
    /// Cooperating threads per work item (the paper's `T` in Algorithm 2).
    pub lanes_per_item: u32,
    /// 32-bit registers demanded by each thread.
    pub registers_per_thread: u32,
    /// Expected fraction of warps that hit the "unexpected branch issue"
    /// of Sec. IV-A2 (0.0–1.0). Divergent warps serialize their branch
    /// arms unless the resource manager combines them.
    pub divergence: f64,
}

impl KernelSpec {
    /// A minimal spec with one lane per item and modest resources.
    pub fn simple(name: &'static str) -> Self {
        KernelSpec {
            name,
            lanes_per_item: 1,
            registers_per_thread: 32,
            divergence: 0.0,
        }
    }
}

/// One kernel launch of a [`Device::launch_each`](crate::Device::launch_each)
/// call: the kernel, the items it runs over, and the bytes copied to the
/// device before it and back after it.
#[derive(Debug, Clone)]
pub struct Launch<'a, I> {
    /// The kernel.
    pub spec: KernelSpec,
    /// One work item per entry.
    pub items: &'a [I],
    /// Bytes copied host→device before the launch.
    pub bytes_in: u64,
    /// Bytes copied device→host after it.
    pub bytes_out: u64,
}

/// Per-item execution outcome returned by kernel bodies.
#[derive(Debug, Clone)]
pub struct ItemOutcome<O> {
    /// The item's output value.
    pub output: O,
    /// Limb-level operations the item performed across its lanes
    /// (drives the simulated kernel time).
    pub thread_ops: u64,
    /// Whether this item took a data-dependent branch (contributes to
    /// warp divergence).
    pub divergent: bool,
}

impl<O> ItemOutcome<O> {
    /// Convenience constructor for non-divergent items.
    pub fn new(output: O, thread_ops: u64) -> Self {
        ItemOutcome {
            output,
            thread_ops,
            divergent: false,
        }
    }
}

/// Wraps a fallible kernel body's result as an outcome, keeping the error
/// in the output so the caller can collect it after the launch.
pub fn outcome_from_result<O, E>(
    result: Result<O, E>,
    thread_ops: u64,
    divergent: bool,
) -> ItemOutcome<Result<O, E>> {
    ItemOutcome {
        output: result,
        thread_ops,
        divergent,
    }
}

/// Everything measured about one kernel launch.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel name.
    pub name: &'static str,
    /// Number of work items.
    pub items: usize,
    /// The grid/occupancy plan chosen by the resource manager.
    pub plan: LaunchPlan,
    /// Host pool workers the launch fanned out across.
    pub pool_threads: usize,
    /// Simulated host→device copy seconds.
    pub sim_h2d_seconds: f64,
    /// Simulated device compute seconds.
    pub sim_kernel_seconds: f64,
    /// Simulated device→host copy seconds.
    pub sim_d2h_seconds: f64,
    /// Bytes copied host→device.
    pub bytes_in: u64,
    /// Bytes copied device→host.
    pub bytes_out: u64,
    /// Total limb-level operations reported by items.
    pub total_thread_ops: u64,
    /// Fraction of items that diverged.
    pub divergent_fraction: f64,
    /// SM utilization achieved (0.0–1.0): occupancy × wave fill.
    pub sm_utilization: f64,
}

impl LaunchReport {
    /// Total simulated seconds (`t_gpu` of the paper's Eq. 10:
    /// transfer-in + compute + transfer-out).
    pub fn sim_total_seconds(&self) -> f64 {
        self.sim_h2d_seconds + self.sim_kernel_seconds + self.sim_d2h_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{LaunchPlan, OccupancyLimit};

    fn dummy_plan() -> LaunchPlan {
        LaunchPlan {
            threads_per_block: 128,
            num_blocks: 4,
            total_threads: 512,
            blocks_per_sm: 2,
            resident_threads_per_sm: 256,
            occupancy: 0.5,
            effective_registers_per_thread: 32,
            limited_by: OccupancyLimit::Threads,
            waves: 1,
        }
    }

    #[test]
    fn sim_total_adds_three_phases() {
        let r = LaunchReport {
            name: "t",
            items: 1,
            plan: dummy_plan(),
            pool_threads: 1,
            sim_h2d_seconds: 1.0,
            sim_kernel_seconds: 2.0,
            sim_d2h_seconds: 3.0,
            bytes_in: 0,
            bytes_out: 0,
            total_thread_ops: 0,
            divergent_fraction: 0.0,
            sm_utilization: 1.0,
        };
        assert_eq!(r.sim_total_seconds(), 6.0);
    }

    #[test]
    fn simple_spec_defaults() {
        let s = KernelSpec::simple("enc");
        assert_eq!(s.lanes_per_item, 1);
        assert_eq!(s.divergence, 0.0);
    }
}
