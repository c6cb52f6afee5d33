//! Accumulated device statistics.

use crate::kernel::LaunchReport;

/// One utilization observation, tagged by kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationSample {
    /// Kernel name.
    pub kernel: &'static str,
    /// SM utilization 0.0–1.0.
    pub utilization: f64,
    /// Occupancy component of the sample.
    pub occupancy: f64,
}

/// Running totals across every launch on a device.
///
/// These feed the paper's RQ2 evaluation (throughput and hardware
/// utilization, Table IV / Fig. 6) and the component-time analysis of
/// Table VI.
#[derive(Debug, Clone, Default)]
pub struct DeviceStats {
    /// Number of kernel launches.
    pub launches: u64,
    /// Total work items processed.
    pub items: u64,
    /// Simulated seconds: host→device copies.
    pub sim_h2d_seconds: f64,
    /// Simulated seconds: kernel compute.
    pub sim_kernel_seconds: f64,
    /// Simulated seconds: device→host copies.
    pub sim_d2h_seconds: f64,
    /// Bytes copied host→device.
    pub bytes_in: u64,
    /// Bytes copied device→host.
    pub bytes_out: u64,
    /// Limb-level thread operations executed.
    pub thread_ops: u64,
    /// Per-launch utilization samples.
    pub utilization_samples: Vec<UtilizationSample>,
}

impl DeviceStats {
    /// Folds one launch report into the totals.
    pub fn record(&mut self, report: &LaunchReport) {
        self.launches += 1;
        self.items += report.items as u64;
        self.sim_h2d_seconds += report.sim_h2d_seconds;
        self.sim_kernel_seconds += report.sim_kernel_seconds;
        self.sim_d2h_seconds += report.sim_d2h_seconds;
        self.bytes_in += report.bytes_in;
        self.bytes_out += report.bytes_out;
        self.thread_ops += report.total_thread_ops;
        self.utilization_samples.push(UtilizationSample {
            kernel: report.name,
            utilization: report.sm_utilization,
            occupancy: report.plan.occupancy,
        });
    }

    /// Mean SM utilization across launches (0.0 when no launches).
    pub fn mean_sm_utilization(&self) -> f64 {
        if self.utilization_samples.is_empty() {
            return 0.0;
        }
        self.utilization_samples
            .iter()
            .map(|s| s.utilization)
            .sum::<f64>()
            / self.utilization_samples.len() as f64
    }

    /// Total simulated device seconds.
    pub fn sim_total_seconds(&self) -> f64 {
        self.sim_h2d_seconds + self.sim_kernel_seconds + self.sim_d2h_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::{LaunchPlan, OccupancyLimit};

    fn report(util: f64, items: usize) -> LaunchReport {
        LaunchReport {
            name: "k",
            items,
            plan: LaunchPlan {
                threads_per_block: 32,
                num_blocks: 1,
                total_threads: 32,
                blocks_per_sm: 1,
                resident_threads_per_sm: 32,
                occupancy: util,
                effective_registers_per_thread: 32,
                limited_by: OccupancyLimit::Threads,
                waves: 1,
            },
            pool_threads: 1,
            sim_h2d_seconds: 1.0,
            sim_kernel_seconds: 2.0,
            sim_d2h_seconds: 1.0,
            bytes_in: 100,
            bytes_out: 200,
            total_thread_ops: 64,
            divergent_fraction: 0.0,
            sm_utilization: util,
        }
    }

    #[test]
    fn record_accumulates() {
        let mut s = DeviceStats::default();
        s.record(&report(0.5, 10));
        s.record(&report(1.0, 20));
        assert_eq!(s.launches, 2);
        assert_eq!(s.items, 30);
        assert_eq!(s.bytes_in, 200);
        assert_eq!(s.bytes_out, 400);
        assert_eq!(s.thread_ops, 128);
        assert!((s.mean_sm_utilization() - 0.75).abs() < 1e-12);
        assert!((s.sim_total_seconds() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = DeviceStats::default();
        assert_eq!(s.mean_sm_utilization(), 0.0);
        assert_eq!(s.sim_total_seconds(), 0.0);
    }
}
