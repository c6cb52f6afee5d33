//! Fixture: op-count estimates drifted from their kernel.

fn kernel(a: u64, b: u64) -> u64 {
    a.wrapping_mul(b)
}

// flcheck: estimates(kernel, 2)
// flcheck: estimates(vanished_kernel, 2)
// flcheck: estimates(kernel, 5)
pub fn kernel_op_estimate() -> u64 {
    3
}
