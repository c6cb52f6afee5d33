//! Property-based tests for the GPU execution model: launch-plan
//! feasibility.

use gpu_sim::resource::{OccupancyLimit, ResourceManager};
use gpu_sim::{DeviceConfig, KernelSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = KernelSpec> {
    (1u32..=64, 1u32..=255, 0.0f64..=1.0).prop_map(|(lanes, regs, div)| KernelSpec {
        name: "prop",
        lanes_per_item: lanes,
        registers_per_thread: regs,
        divergence: div,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn launch_plans_are_always_feasible(spec in arb_spec(), items in 0usize..2_000_000) {
        for cfg in [DeviceConfig::rtx3090(), DeviceConfig::test_tiny()] {
            let rm = ResourceManager::new();
            let plan = rm.plan(&cfg, &spec, items);
            // Grid covers the work.
            let needed = (items.max(1) as u64) * spec.lanes_per_item as u64;
            prop_assert!(plan.num_blocks as u64 * plan.threads_per_block as u64 >= needed);
            // Residency respects hardware ceilings.
            prop_assert!(plan.threads_per_block <= cfg.max_threads_per_sm);
            prop_assert!(plan.blocks_per_sm >= 1 && plan.blocks_per_sm <= cfg.max_blocks_per_sm);
            prop_assert!(plan.resident_threads_per_sm <= cfg.max_threads_per_sm * plan.blocks_per_sm.max(1));
            // Occupancy is a fraction.
            prop_assert!(plan.occupancy > 0.0 && plan.occupancy <= 1.0 + 1e-12);
            // Waves drain the grid.
            let device_blocks = plan.blocks_per_sm as u64 * cfg.num_sms as u64;
            prop_assert!(plan.waves as u64 * device_blocks >= plan.num_blocks as u64);
            // The limit tag is one of the real resources.
            prop_assert!(matches!(
                plan.limited_by,
                OccupancyLimit::Threads | OccupancyLimit::Registers | OccupancyLimit::Blocks
            ));
        }
    }

    #[test]
    fn adaptive_never_loses_to_fixed(spec in arb_spec(), items in 1usize..500_000) {
        let cfg = DeviceConfig::rtx3090();
        let adaptive = ResourceManager::new().plan(&cfg, &spec, items);
        for fixed_block in [32u32, 128, 512, 1024] {
            let fixed = ResourceManager::fixed(fixed_block).plan(&cfg, &spec, items);
            prop_assert!(
                adaptive.occupancy >= fixed.occupancy - 1e-9,
                "adaptive {} < fixed({fixed_block}) {} for {:?}",
                adaptive.occupancy,
                fixed.occupancy,
                spec
            );
        }
    }
}
