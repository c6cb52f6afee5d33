//! **Round-engine pipelining benchmark**: modeled secure-aggregation
//! round time with the event-driven engine overlapping client encrypt,
//! transfer, and server folds, versus the same round run strictly
//! sequentially. Every printed number is a simulated second or a ratio of
//! two, so `results/bench_rounds.txt` repeats to the byte; wall clock for
//! the same rounds is flbench's `round.engine_seq_ms` and
//! `round.engine_pipelined_ms`.
//!
//! Each cell runs *real* crypto — every client encrypts its gradient
//! vector, the server folds ciphertexts as they arrive, one decrypt
//! closes the round — through [`fl::engine::run_round`] twice over the
//! same parties and seeds:
//!
//! * **sequential** — `EngineConfig::sequential()` on a single-stream
//!   NIC: nothing overlaps (elapsed == work).
//! * **pipelined** — `EngineConfig::default()` on a 4-stream duplex
//!   NIC with mild compute heterogeneity: encrypts stagger, transfers
//!   overlap, folds stream behind the uplink.
//!
//! The *modeled speedup* is sequential elapsed over pipelined elapsed
//! (simulated seconds — deterministic on any host).
//!
//! Gates (exit 1 on failure; `run_harness.sh` traps them):
//!
//! 1. **Bit identity** — the pipelined round's decrypted sums must equal
//!    the sequential round's exactly, at every client count.
//! 2. **Speedup floor** — modeled round-time reduction must be ≥ 1.5×
//!    at every swept client count (all are ≥ 64).
//!
//! ```text
//! cargo run -p flbooster-bench --release --bin bench_rounds -- [--quick]
//! ```

use fl::engine::{run_round, EngineConfig};
use fl::metrics::EpochBreakdown;
use fl::train::{FlEnv, TrainConfig};
use fl::{BackendKind, Network};
use flbooster_bench::table::Table;
use flbooster_bench::{backend, quick_tier};

/// Key size of every round.
const KEY_BITS: u32 = 256;
/// Gradient components per client (packed to a couple of ciphertexts).
const VALUES_PER_CLIENT: usize = 8;
/// Local-compute flops per client per round.
const FLOPS_PER_CLIENT: u64 = 50_000;
/// NIC streams the pipelined configuration may overlap.
const DUPLEX_STREAMS: u32 = 4;
/// Modeled round-time reduction floor at 64+ clients.
const SPEEDUP_FLOOR: f64 = 1.5;
/// Compute heterogeneity profile tiled over the clients.
const MULTIPLIERS: [f64; 4] = [0.7, 1.0, 1.15, 1.3];

struct Row {
    clients: usize,
    work_seconds: f64,
    sequential_seconds: f64,
    pipelined_seconds: f64,
    speedup: f64,
    identical: bool,
}

/// Deterministic per-client gradient vectors.
fn parties(clients: usize) -> Vec<Vec<f64>> {
    (0..clients)
        .map(|k| {
            (0..VALUES_PER_CLIENT)
                .map(|i| ((k * VALUES_PER_CLIENT + i) as f64 * 0.173).sin() * 0.6)
                .collect()
        })
        .collect()
}

// The sweep tops out at 1024 clients — nowhere near 2^32 — so the
// backend party-count cast cannot truncate.
// flcheck: widen-ok(clients)
fn engine_env(key_bits: u32, clients: usize, duplex: u32) -> FlEnv {
    let accel = backend(BackendKind::FlBooster, key_bits, clients as u32);
    let profile = accel.network_profile().with_duplex_streams(duplex);
    FlEnv {
        network: Network::new(profile, 0x0E7),
        accel,
    }
}

fn measure(key_bits: u32, clients: usize) -> Row {
    let grads = parties(clients);
    let flops = vec![FLOPS_PER_CLIENT; clients];
    let tcfg = TrainConfig::default();
    let seed = 0xB00 + clients as u64;

    let seq_env = engine_env(key_bits, clients, 1);
    let mut seq_b = EpochBreakdown::default();
    let seq = run_round(
        &seq_env,
        &EngineConfig::sequential().with_compute_multipliers(MULTIPLIERS.to_vec()),
        &tcfg,
        &grads,
        &flops,
        seed,
        &mut seq_b,
    )
    .expect("sequential round");

    let pipe_env = engine_env(key_bits, clients, DUPLEX_STREAMS);
    let mut pipe_b = EpochBreakdown::default();
    let pipe = run_round(
        &pipe_env,
        &EngineConfig::default().with_compute_multipliers(MULTIPLIERS.to_vec()),
        &tcfg,
        &grads,
        &flops,
        seed,
        &mut pipe_b,
    )
    .expect("pipelined round");

    Row {
        clients,
        work_seconds: seq.round_seconds,
        sequential_seconds: seq.round_seconds,
        pipelined_seconds: pipe.round_seconds,
        speedup: seq.round_seconds / pipe.round_seconds,
        identical: pipe.sums == seq.sums,
    }
}

fn main() {
    let (quick, _) = quick_tier(0, "bench_rounds [--quick]");
    let client_sweep: Vec<usize> = if quick {
        vec![64, 128]
    } else {
        vec![64, 256, 1024]
    };

    println!(
        "Round-engine pipelining — {KEY_BITS}-bit keys, {VALUES_PER_CLIENT} values/client, \
         duplex {DUPLEX_STREAMS}, clients {client_sweep:?}\n"
    );

    let rows: Vec<Row> = client_sweep.iter().map(|&c| measure(KEY_BITS, c)).collect();

    let mut table = Table::new([
        "Clients",
        "Work sim s",
        "Sequential sim s",
        "Pipelined sim s",
        "Speedup",
        "Identical",
    ]);
    for r in &rows {
        table.row([
            r.clients.to_string(),
            format!("{:.4}", r.work_seconds),
            format!("{:.4}", r.sequential_seconds),
            format!("{:.4}", r.pipelined_seconds),
            format!("{:.2}x", r.speedup),
            r.identical.to_string(),
        ]);
    }
    table.print();
    println!();

    let mut failed = false;

    // Gate 1: pipelined sums bit-identical to sequential sums.
    for r in &rows {
        if !r.identical {
            println!(
                "GATE FAILED: pipelined sums diverged from sequential at {} clients",
                r.clients
            );
            failed = true;
        }
    }
    if !failed {
        println!("gate ok: pipelined sums bit-identical to sequential at every client count");
    }

    // Gate 2: modeled round-time reduction floor.
    for r in &rows {
        if r.speedup < SPEEDUP_FLOOR {
            println!(
                "GATE FAILED: modeled speedup {:.2}x at {} clients < required {SPEEDUP_FLOOR}x",
                r.speedup, r.clients
            );
            failed = true;
        } else {
            println!(
                "gate ok: modeled speedup {:.2}x at {} clients >= {SPEEDUP_FLOOR}x",
                r.speedup, r.clients
            );
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("All round-engine gates passed.");
}
