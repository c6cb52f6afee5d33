//! Device descriptions.

/// Static description of a simulated GPU.
///
/// Field meanings follow the CUDA occupancy model: a kernel block can be
/// resident on an SM only if its thread, register, and shared-memory
/// demands all fit; the per-SM limits below bound how many blocks (and
/// therefore warps) can be co-resident.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Marketing name, reported in launch logs.
    pub name: &'static str,
    /// Number of stream multiprocessors.
    pub num_sms: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Maximum registers addressable by one thread.
    pub max_registers_per_thread: u32,
    /// Shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// Threads per warp (32 on every NVIDIA part).
    pub warp_size: u32,
    /// Host↔device copy bandwidth in bytes/second (PCIe), the paper's
    /// `1/β_transfer`.
    pub transfer_bytes_per_sec: f64,
    /// Simulated time for one limb-level multiply-accumulate on one GPU
    /// thread, in seconds (the paper's `β_gpu` at word granularity).
    pub sec_per_thread_op: f64,
}

impl DeviceConfig {
    /// The paper's testbed: NVIDIA GeForce RTX 3090 (GA102, 82 SMs).
    ///
    /// `sec_per_thread_op` is an *effective* per-thread cost of one
    /// multi-precision limb MAC, calibrated so that the simulated Paillier
    /// throughput at 1024-bit keys lands near the paper's Table IV
    /// (~59 k instances/s for a HAFLO-style launch). It folds in memory
    /// stalls, warp scheduling, and instruction overheads that the
    /// execution model does not represent explicitly.
    pub fn rtx3090() -> Self {
        DeviceConfig {
            name: "NVIDIA GeForce RTX 3090 (simulated)",
            num_sms: 82,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 16,
            registers_per_sm: 65_536,
            max_registers_per_thread: 255,
            shared_mem_per_sm: 100 * 1024,
            warp_size: 32,
            transfer_bytes_per_sec: 16.0e9, // PCIe 4.0 x16 effective
            sec_per_thread_op: 1.4e-6,
        }
    }

    /// A deliberately tiny device for deterministic unit tests: 2 SMs,
    /// 128 threads each.
    pub fn test_tiny() -> Self {
        DeviceConfig {
            name: "test-tiny",
            num_sms: 2,
            max_threads_per_sm: 128,
            max_blocks_per_sm: 4,
            registers_per_sm: 4096,
            max_registers_per_thread: 64,
            shared_mem_per_sm: 16 * 1024,
            warp_size: 32,
            transfer_bytes_per_sec: 1.0e9,
            sec_per_thread_op: 1.0e-6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtx3090_shape() {
        let c = DeviceConfig::rtx3090();
        assert_eq!(c.num_sms, 82);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.max_threads_per_sm, 1536);
    }

    #[test]
    fn tiny_is_smaller_than_3090() {
        let t = DeviceConfig::test_tiny();
        let b = DeviceConfig::rtx3090();
        assert!(t.num_sms < b.num_sms && t.max_threads_per_sm < b.max_threads_per_sm);
    }
}
