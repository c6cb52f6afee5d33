//! Property-based tests for the GPU execution model: memory-table
//! conservation and launch-plan feasibility.

use gpu_sim::memory::MemoryTable;
use gpu_sim::resource::{OccupancyLimit, ResourceManager};
use gpu_sim::{DeviceConfig, KernelSpec};
use proptest::prelude::*;

/// Random alloc/free scripts against the memory table.
#[derive(Debug, Clone)]
enum MemOp {
    Alloc(u64),
    FreeNth(usize),
}

fn mem_ops() -> impl Strategy<Value = Vec<MemOp>> {
    proptest::collection::vec(
        prop_oneof![
            (1u64..4096).prop_map(MemOp::Alloc),
            (0usize..64).prop_map(MemOp::FreeNth),
        ],
        1..80,
    )
}

fn arb_spec() -> impl Strategy<Value = KernelSpec> {
    (1u32..=64, 1u32..=255, 0u32..=48 * 1024, 0.0f64..=1.0).prop_map(|(lanes, regs, smem, div)| {
        KernelSpec {
            name: "prop",
            lanes_per_item: lanes,
            registers_per_thread: regs,
            shared_mem_per_block: smem,
            divergence: div,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memory_table_conserves_bytes(ops in mem_ops()) {
        let mut table = MemoryTable::new(1 << 20);
        let mut live: Vec<gpu_sim::memory::DevicePtr> = Vec::new();
        let mut expected_in_use = 0u64;
        for op in ops {
            match op {
                MemOp::Alloc(len) => {
                    if let Ok(ptr) = table.alloc(len) {
                        expected_in_use += len;
                        live.push(ptr);
                    }
                }
                MemOp::FreeNth(i) => {
                    if !live.is_empty() {
                        let ptr = live.swap_remove(i % live.len());
                        table.free(ptr).expect("live pointer frees cleanly");
                        expected_in_use -= ptr.len;
                    }
                }
            }
            prop_assert_eq!(table.bytes_in_use(), expected_in_use);
            prop_assert!(table.counters().peak_bytes >= table.bytes_in_use());
        }
        // No two live allocations overlap.
        let mut regions: Vec<(u64, u64)> = live.iter().map(|p| (p.addr, p.addr + p.len)).collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
        }
        // Everything fits the heap.
        for (_, end) in &regions {
            prop_assert!(*end <= table.capacity());
        }
    }

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
                OccupancyLimit::Threads
                    | OccupancyLimit::Registers
                    | OccupancyLimit::SharedMem
                    | OccupancyLimit::Blocks
            ));
        }
    }

    #[test]
    fn adaptive_never_loses_to_fixed(spec in arb_spec(), items in 1usize..500_000) {
        let cfg = DeviceConfig::rtx3090();
        let adaptive = ResourceManager::new().plan(&cfg, &spec, items);
        for fixed_block in [32u32, 128, 512, 1024] {
            let fixed = ResourceManager::fixed(fixed_block)
                .without_branch_combining()
                .plan(&cfg, &spec, items);
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
