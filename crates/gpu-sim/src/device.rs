//! The simulated device: kernel launches, transfers, and accounting.

use parking_lot::Mutex;
use rayon::prelude::*;

use crate::config::DeviceConfig;
use crate::kernel::{ItemOutcome, KernelSpec, Launch, LaunchReport};
use crate::resource::ResourceManager;
use crate::stats::DeviceStats;

/// Compute-slowdown factor for a divergent warp whose branches the
/// resource manager recombines (small residual cost) versus lets split
/// (both arms execute serially).
const COMBINED_BRANCH_PENALTY: f64 = 1.05;
const SPLIT_BRANCH_PENALTY: f64 = 2.0;

/// A simulated GPU.
///
/// Kernel bodies run *for real*, data-parallel across the host
/// thread pool (so results are exact), while the launch is
/// *accounted* under the GPU execution model:
/// the resource manager plans a grid, occupancy and utilization are
/// derived from the plan, and simulated H2D/compute/D2H times follow the
/// three-stage model of the paper's Sec. V-B.
pub struct Device {
    config: DeviceConfig,
    manager: ResourceManager,
    stats: Mutex<DeviceStats>,
}

impl Device {
    /// Creates a device with the default FLBooster resource manager.
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_manager(config, ResourceManager::new())
    }

    /// Creates a device with an explicit resource manager (used by the
    /// resource-manager ablation bench).
    pub fn with_manager(config: DeviceConfig, manager: ResourceManager) -> Self {
        Device {
            config,
            manager,
            stats: Mutex::new(DeviceStats::default()),
        }
    }

    /// The device description.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The active resource manager.
    pub fn manager(&self) -> &ResourceManager {
        &self.manager
    }

    /// Launches `spec` over `items`, transferring `bytes_in` to the device
    /// beforehand and `bytes_out` back afterwards: the one-launch case of
    /// [`launch_each`](Self::launch_each).
    ///
    /// Each item runs `body(index, &item)` as its own task on the host
    /// pool; outputs are returned in item order alongside the full
    /// [`LaunchReport`] regardless of how many workers executed them.
    /// `body` must not panic across items it wants kept: a panic in any
    /// item cancels the launch and propagates to the caller (the device
    /// and its pool stay usable).
    #[expect(
        clippy::expect_used,
        reason = "`launch_each` returns one entry per launch it is given"
    )]
    pub fn launch<I, O, F>(
        &self,
        spec: &KernelSpec,
        items: &[I],
        bytes_in: u64,
        bytes_out: u64,
        body: F,
    ) -> (Vec<O>, LaunchReport)
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> ItemOutcome<O> + Sync,
    {
        let launch = Launch {
            spec: spec.clone(),
            items,
            bytes_in,
            bytes_out,
        };
        self.launch_each(std::slice::from_ref(&launch), |_, i, item| body(i, item))
            .pop()
            .expect("one launch in, one report out")
    }

    /// Runs `launches` as one drive of the host pool: every
    /// `(launch, item)` pair is its own task, running
    /// `body(launch, index, &item)`. Each launch is then accounted exactly
    /// as it would be alone — its own plan, transfers, simulated times and
    /// [`LaunchReport`] — and recorded in the device's stats in launch
    /// order, whatever order its items finished in. Outputs come back in
    /// item order, launches in launch order; an empty launch is recorded
    /// like any other. A panic in any item cancels the whole call and
    /// propagates to the caller: nothing is recorded, and the device and
    /// its pool stay usable.
    pub fn launch_each<I, O, F>(
        &self,
        launches: &[Launch<'_, I>],
        body: F,
    ) -> Vec<(Vec<O>, LaunchReport)>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, usize, &I) -> ItemOutcome<O> + Sync,
    {
        #[expect(
            clippy::disallowed_methods,
            reason = "LaunchReport.pool_threads is thread-dependent by design (the determinism \
                      test asserts it equals the pool width); item outputs below are \
                      index-ordered and never read it"
        )]
        let pool_threads = rayon::current_num_threads();

        let tasks: Vec<(usize, usize, &I)> = launches
            .iter()
            .enumerate()
            .flat_map(|(l, launch)| {
                launch
                    .items
                    .iter()
                    .enumerate()
                    .map(move |(i, item)| (l, i, item))
            })
            .collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "drive home: every simulated device launch of one call, side by side"
        )]
        let outcomes: Vec<ItemOutcome<O>> = tasks
            .par_iter()
            .map(|&(l, i, item)| body(l, i, item))
            .collect();

        let mut outcomes = outcomes.into_iter();
        let done: Vec<(Vec<O>, LaunchReport)> = launches
            .iter()
            .map(|launch| {
                let own = outcomes.by_ref().take(launch.items.len());
                self.account(launch, pool_threads, own)
            })
            .collect();
        self.stats
            .with(|s| done.iter().for_each(|(_, report)| s.record(report)));
        done
    }

    /// One launch's outputs and report from its items' outcomes, in item
    /// order: the grid plan, and the three-stage simulated timing of the
    /// paper's Sec. V-B.
    fn account<I, O>(
        &self,
        launch: &Launch<'_, I>,
        pool_threads: usize,
        outcomes: impl Iterator<Item = ItemOutcome<O>>,
    ) -> (Vec<O>, LaunchReport) {
        let Launch {
            spec,
            items,
            bytes_in,
            bytes_out,
        } = launch;
        let (bytes_in, bytes_out) = (*bytes_in, *bytes_out);
        let plan = self.manager.plan(&self.config, spec, items.len());

        let mut outputs = Vec::with_capacity(items.len());
        let mut total_ops: u64 = 0;
        let mut divergent_items: u64 = 0;
        let mut penalized_ops: f64 = 0.0;
        let branch_penalty = if self.manager.branch_combining() {
            COMBINED_BRANCH_PENALTY
        } else {
            SPLIT_BRANCH_PENALTY
        };
        for o in outcomes {
            total_ops += o.thread_ops;
            penalized_ops += if o.divergent {
                divergent_items += 1;
                o.thread_ops as f64 * branch_penalty
            } else {
                o.thread_ops as f64
            };
            outputs.push(o.output);
        }

        // Simulated three-stage timing (paper Sec. V-B): copy in, compute
        // in parallel over the concurrently resident threads, copy out.
        let sim_h2d = bytes_in as f64 / self.config.transfer_bytes_per_sec;
        let sim_d2h = bytes_out as f64 / self.config.transfer_bytes_per_sec;
        let concurrent = plan.concurrent_threads(&self.config).max(1) as f64;
        let sim_kernel = penalized_ops / concurrent * self.config.sec_per_thread_op;

        // SM utilization = occupancy × wave fill (the tail wave of a small
        // grid leaves SMs idle).
        let device_resident =
            (plan.resident_threads_per_sm as u64 * self.config.num_sms as u64).max(1);
        let fill = plan.total_threads as f64 / (plan.waves.max(1) as u64 * device_resident) as f64;
        let sm_utilization = (plan.occupancy * fill.min(1.0)).min(1.0);

        let divergent_fraction = if items.is_empty() {
            0.0
        } else {
            divergent_items as f64 / items.len() as f64
        };

        let report = LaunchReport {
            name: spec.name,
            items: items.len(),
            plan,
            pool_threads,
            sim_h2d_seconds: sim_h2d,
            sim_kernel_seconds: sim_kernel,
            sim_d2h_seconds: sim_d2h,
            bytes_in,
            bytes_out,
            total_thread_ops: total_ops,
            divergent_fraction,
            sm_utilization,
        };
        (outputs, report)
    }

    /// Snapshot of accumulated statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats.with(|s| s.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> Device {
        Device::new(DeviceConfig::test_tiny())
    }

    fn spec() -> KernelSpec {
        KernelSpec::simple("square")
    }

    #[test]
    fn launch_returns_outputs_in_order() {
        let d = device();
        let items: Vec<u64> = (0..100).collect();
        let (out, report) = d.launch(&spec(), &items, 800, 800, |_, &x| {
            ItemOutcome::new(x * x, 1)
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(report.items, 100);
        assert_eq!(report.total_thread_ops, 100);
    }

    #[test]
    fn transfer_times_follow_bandwidth() {
        let d = device();
        let items = [0u8];
        let (_, r) = d.launch(&spec(), &items, 1_000_000_000, 500_000_000, |_, _| {
            ItemOutcome::new((), 1)
        });
        // test_tiny bandwidth = 1e9 B/s
        assert!((r.sim_h2d_seconds - 1.0).abs() < 1e-9);
        assert!((r.sim_d2h_seconds - 0.5).abs() < 1e-9);
    }

    #[test]
    fn kernel_time_scales_inverse_with_parallelism() {
        let cfg = DeviceConfig::test_tiny();
        let d = Device::new(cfg);
        // Few items: low parallelism. Many items: full device.
        let small: Vec<u32> = (0..4).collect();
        let large: Vec<u32> = (0..4096).collect();
        let (_, rs) = d.launch(&spec(), &small, 0, 0, |_, _| ItemOutcome::new((), 1000));
        let (_, rl) = d.launch(&spec(), &large, 0, 0, |_, _| ItemOutcome::new((), 1000));
        // 1024x the work but only ~64x the time (device has 256 slots).
        let ratio = rl.sim_kernel_seconds / rs.sim_kernel_seconds;
        assert!(
            ratio < 1024.0 * 0.5,
            "parallel speedup missing: ratio {ratio}"
        );
    }

    #[test]
    fn utilization_reflects_underfilled_device() {
        let d = device();
        let tiny: Vec<u32> = (0..2).collect(); // 2 threads on a 256-slot device
        let (_, r) = d.launch(&spec(), &tiny, 0, 0, |_, _| ItemOutcome::new((), 1));
        assert!(r.sm_utilization < 0.1, "utilization {}", r.sm_utilization);
        let full: Vec<u32> = (0..10_000).collect();
        let (_, r2) = d.launch(&spec(), &full, 0, 0, |_, _| ItemOutcome::new((), 1));
        assert!(r2.sm_utilization > r.sm_utilization);
    }

    #[test]
    fn divergence_penalty_depends_on_manager() {
        let items: Vec<u32> = (0..256).collect();
        let mut s = spec();
        s.divergence = 1.0;
        let run = |d: &Device| {
            let (_, r) = d.launch(&s, &items, 0, 0, |i, _| ItemOutcome {
                output: (),
                thread_ops: 100,
                divergent: i % 2 == 0,
            });
            r
        };
        let combining = Device::new(DeviceConfig::test_tiny());
        // Same grid as the adaptive plan, split warps.
        let plan = combining
            .manager()
            .plan(combining.config(), &s, items.len());
        let splitting = Device::with_manager(
            DeviceConfig::test_tiny(),
            ResourceManager::fixed(plan.threads_per_block),
        );
        let rc = run(&combining);
        let rs = run(&splitting);
        assert!((rc.divergent_fraction - 0.5).abs() < 1e-12);
        assert!(
            rs.sim_kernel_seconds > rc.sim_kernel_seconds,
            "split branches must cost more: {} vs {}",
            rs.sim_kernel_seconds,
            rc.sim_kernel_seconds
        );
    }

    #[test]
    fn stats_accumulate_across_launches() {
        let d = device();
        let items = [1u8, 2, 3];
        for _ in 0..3 {
            d.launch(&spec(), &items, 10, 20, |_, _| ItemOutcome::new((), 5));
        }
        let s = d.stats();
        assert_eq!(s.launches, 3);
        assert_eq!(s.items, 9);
        assert_eq!(s.bytes_in, 30);
        assert_eq!(s.bytes_out, 60);
        assert_eq!(s.thread_ops, 45);
    }

    #[test]
    fn launch_reports_pool_threads_and_is_thread_count_invariant() {
        let d = device();
        let items: Vec<u64> = (0..333).collect();
        let mut baseline: Option<Vec<u64>> = None;
        for threads in [1usize, 4, 16] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let (out, report) = pool.install(|| {
                d.launch(&spec(), &items, 0, 0, |i, &x| {
                    ItemOutcome::new(x.wrapping_mul(x) ^ i as u64, 3)
                })
            });
            assert_eq!(report.pool_threads, threads);
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert_eq!(&out, b, "outputs diverged at {threads} threads"),
            }
        }
    }

    #[test]
    fn panicking_item_cancels_launch_but_device_survives() {
        let d = device();
        let items: Vec<u32> = (0..64).collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("pool");
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                d.launch(&spec(), &items, 0, 0, |_, &x| {
                    if x == 13 {
                        panic!("unlucky item");
                    }
                    ItemOutcome::new(x, 1)
                })
            })
        }));
        assert!(attempt.is_err(), "the item panic must surface");
        // The device (and the pool behind it) is still fully usable.
        let (out, _) = d.launch(&spec(), &items, 0, 0, |_, &x| ItemOutcome::new(x + 1, 1));
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    fn in_pool<R>(threads: usize, f: impl FnOnce() -> R) -> R {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(f)
    }

    /// Three launches of different kernels and sizes, the middle one empty.
    fn mixed<'a>(items: &'a [Vec<u64>; 3]) -> Vec<Launch<'a, u64>> {
        let divergent = KernelSpec {
            lanes_per_item: 32,
            divergence: 1.0,
            ..KernelSpec::simple("b")
        };
        [
            KernelSpec::simple("a"),
            KernelSpec::simple("empty"),
            divergent,
        ]
        .into_iter()
        .zip(items)
        .enumerate()
        .map(|(l, (spec, items))| Launch {
            spec,
            items,
            bytes_in: 100 * l as u64 + 7,
            bytes_out: 3 * l as u64,
        })
        .collect()
    }

    fn body(l: usize, i: usize, &x: &u64) -> ItemOutcome<u64> {
        ItemOutcome {
            output: x.wrapping_mul(31) ^ (l as u64) << 40,
            thread_ops: x % 17 + l as u64,
            divergent: i.is_multiple_of(3),
        }
    }

    #[test]
    fn launch_each_equals_separate_launches_bit_for_bit_in_launch_order() {
        let items = [(0..300).collect(), Vec::new(), (5..40).collect()];
        let launches = mixed(&items);
        let render =
            |runs: &[(Vec<u64>, LaunchReport)], d: &Device| format!("{runs:?} {:?}", d.stats());
        for threads in [1usize, 2, 8] {
            let (together, apart) = in_pool(threads, || {
                let d = device();
                let each = d.launch_each(&launches, body);
                let together = render(&each, &d);
                let d = device();
                let one_by_one: Vec<_> = launches
                    .iter()
                    .enumerate()
                    .map(|(l, launch)| {
                        d.launch(
                            &launch.spec,
                            launch.items,
                            launch.bytes_in,
                            launch.bytes_out,
                            |i, x| body(l, i, x),
                        )
                    })
                    .collect();
                (together, render(&one_by_one, &d))
            });
            assert_eq!(together, apart, "threads={threads}");
        }
        // Stats hold one sample per launch, the empty one included, in
        // launch order.
        let d = device();
        let each = in_pool(8, || d.launch_each(&launches, body));
        let kernels: Vec<_> = d
            .stats()
            .utilization_samples
            .iter()
            .map(|s| s.kernel)
            .collect();
        assert_eq!(kernels, ["a", "empty", "b"]);
        assert_eq!(d.stats().launches, 3);
        assert!(each[1].0.is_empty());
        assert_eq!(each[1].1.divergent_fraction, 0.0);
        assert_eq!(d.launch_each::<u64, u64, _>(&[], body).len(), 0);
        assert_eq!(d.stats().launches, 3, "no launches, nothing recorded");
    }

    #[test]
    fn a_panic_in_one_launch_cancels_the_call_and_leaves_the_device_usable() {
        let items = [(0..64).collect(), Vec::new(), (0..64).collect()];
        let launches = mixed(&items);
        for threads in [1usize, 2, 8] {
            let d = device();
            let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                in_pool(threads, || {
                    d.launch_each(&launches, |l, i, x| {
                        if l == 2 && i == 13 {
                            panic!("unlucky item");
                        }
                        body(l, i, x)
                    })
                })
            }));
            assert!(
                attempt.is_err(),
                "threads={threads}: the panic must surface"
            );
            assert_eq!(d.stats().launches, 0, "threads={threads}: nothing recorded");
            let each = in_pool(threads, || d.launch_each(&launches, body));
            assert_eq!(each.len(), 3);
            assert_eq!(d.stats().launches, 3, "threads={threads}");
        }
    }

    #[test]
    fn empty_launch_is_harmless() {
        let d = device();
        let items: [u8; 0] = [];
        let (out, r) = d.launch(&spec(), &items, 0, 0, |_, _| ItemOutcome::new(0u8, 1));
        assert!(out.is_empty());
        assert_eq!(r.divergent_fraction, 0.0);
    }
}
