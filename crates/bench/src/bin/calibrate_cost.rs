//! **Cost-model calibration**: re-fits the two DESIGN §8 cost constants
//! that are anchored on the paper's Table IV, failing (exit 1) when either
//! drifts more than [`MAX_DRIFT`] from the constant the workspace ships.
//!
//! 1. **β_cpu re-fit** — the Eq.-10 serial path
//!    (`1 / (ops_per_item · β_cpu)`) is solved for the β that lands FATE
//!    exactly on the paper's 360 inst/s at 1024 bits; the shipped
//!    [`he::ghe::DEFAULT_CPU_SECONDS_PER_OP`] must sit within
//!    [`MAX_DRIFT`] of that fit.
//! 2. **GPU `sec_per_thread_op` re-fit** — replays Table IV's measured
//!    HAFLO cell (encrypt + aggregate + decrypt of a 256-value vector,
//!    epoch-amortized accounting) and first-order-solves for the
//!    per-thread-op seconds that would land it on the paper's 59 k/s.
//!    Kernel time dominates transfer at this shape, so throughput is
//!    ∝ 1/sec_per_thread_op and the fit is `current · measured/target`.
//!
//! The serialization and codec constants (4.5e-4 / 8.4e-5 s per
//! ciphertext, 5e-6 s per value) are anchored on the Fig.-1 epoch
//! breakdown, not on MAC counters, and are out of scope here. That each
//! `*_op_estimate` still prices the kernel it names is pinned by
//! `crates/he/tests/golden_schedule.rs`, not here.
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin calibrate_cost
//! ```

use fl::BackendKind;
use flbooster_bench::{backend, shared_keys};
use gpu_sim::DeviceConfig;
use he::ghe::DEFAULT_CPU_SECONDS_PER_OP;

/// Maximum tolerated relative drift for either constant.
const MAX_DRIFT: f64 = 0.10;
/// Key size of both Table-IV anchors.
const KEY_BITS: u32 = 1024;
/// Paper Table IV @1024: FATE throughput anchor (instances/second).
const FATE_TARGET: f64 = 360.0;
/// Paper Table IV @1024: HAFLO throughput anchor (instances/second).
const HAFLO_TARGET: f64 = 59_000.0;
/// Values in the replayed Table-IV measured cell (RCV1 workload clamp).
const HAFLO_VALUES: usize = 256;

/// Replays Table IV's measured HAFLO cell: encrypt + 2-way aggregate +
/// decrypt of a [`HAFLO_VALUES`]-value vector under epoch-amortized GPU
/// accounting, returning instances per simulated second.
fn haflo_measured() -> f64 {
    let acc = backend(BackendKind::Haflo, KEY_BITS, 4);
    let values: Vec<f64> = (0..HAFLO_VALUES)
        .map(|i| ((i as f64) * 0.61).sin() * 0.9)
        .collect();
    let enc = acc.encrypt(&values, 7).expect("encrypt");
    let agg = acc.aggregate(&[enc.clone(), enc]).expect("aggregate");
    let _ = acc.decrypt_sum(&agg, 2).expect("decrypt");
    2.0 * HAFLO_VALUES as f64 / acc.timing().he_seconds
}

/// Prints one re-fit line and returns whether it is within [`MAX_DRIFT`].
fn report(name: &str, shipped: f64, fitted: f64, anchor: &str) -> bool {
    let drift = (shipped - fitted).abs() / fitted;
    let ok = drift <= MAX_DRIFT;
    println!(
        "  {name}: shipped {shipped:.3e} vs fitted {fitted:.3e} (drift {:.1}%, {anchor}){}",
        drift * 100.0,
        if ok { "" } else { "  <-- FAILED" }
    );
    ok
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        panic!("unknown argument {arg}");
    }
    let keys = shared_keys(KEY_BITS);
    println!("== constant re-fits ({KEY_BITS}-bit anchors) ==");

    // β_cpu against the Eq.-10 FATE anchor.
    let ops_per_item = keys.public.encrypt_op_estimate()
        + keys.public.add_op_estimate()
        + keys.private.decrypt_op_estimate();
    let fitted_beta = 1.0 / (FATE_TARGET * ops_per_item as f64);
    let beta_ok = report(
        "beta_cpu",
        DEFAULT_CPU_SECONDS_PER_OP,
        fitted_beta,
        &format!("FATE target {FATE_TARGET}/s"),
    );

    // GPU sec_per_thread_op against the measured HAFLO anchor.
    let current_spto = DeviceConfig::rtx3090().sec_per_thread_op;
    let measured = haflo_measured();
    let spto_ok = report(
        "sec_per_thread_op",
        current_spto,
        current_spto * measured / HAFLO_TARGET,
        &format!("HAFLO measured {measured:.0}/s vs target {HAFLO_TARGET}/s"),
    );

    if !(beta_ok && spto_ok) {
        println!(
            "DRIFT GATE FAILED: cost model out of calibration (> {:.0}% drift)",
            MAX_DRIFT * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "All calibration checks within {:.0}% drift.",
        MAX_DRIFT * 100.0
    );
}
