//! Self-benchmark for the flcheck static analyzer.
//!
//! Runs the full workspace scan a few times, keeps the best run, and
//! writes `target/BENCH_flcheck.json` with files/sec plus per-pass
//! wall-clock (the `ScanStats` breakdown: per-file, call graph, then
//! whatever the analyzer's `PASSES` list holds). The timings are
//! reporting-only — they never feed back into the analysis, so the
//! report stays byte-identical across runs and thread counts — and they
//! are host noise, so they are written under `target/`, never under
//! `results/` (DESIGN §3).
//!
//! **Throughput regression gate**: if
//! `results/bench_flcheck_baseline.json` exists, the measured files/sec
//! must stay above `0.4×` the committed baseline — a wide band, because
//! analyzer throughput is noisy across hosts, but tight enough to catch
//! an accidentally quadratic pass (the realistic failure mode is a 10×+
//! collapse, not a 20% drift). `--write-baseline` refreshes the file
//! after a deliberate change.
//!
//! ```text
//! cargo run --release --bin bench_flcheck -- [--root DIR] [--out FILE] [--iters N]
//!     [--baseline FILE] [--write-baseline]
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Measured files/sec must clear this fraction of the committed
/// baseline.
const BASELINE_FLOOR: f64 = 0.4;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut out = PathBuf::from("target/BENCH_flcheck.json");
    let mut baseline_path = PathBuf::from("results/bench_flcheck_baseline.json");
    let mut write_baseline = false;
    let mut iters = 3usize;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root requires a directory"),
            },
            "--out" => match args.next() {
                Some(v) => out = PathBuf::from(v),
                None => return usage("--out requires a file path"),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline_path = PathBuf::from(v),
                None => return usage("--baseline requires a file path"),
            },
            "--write-baseline" => write_baseline = true,
            "--iters" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => iters = v,
                _ => return usage("--iters requires a positive integer"),
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench_flcheck [--root DIR] [--out FILE] [--iters N] \
                     [--baseline FILE] [--write-baseline]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Best-of-N: the scan is pure, so the fastest run is the least
    // noise-contaminated estimate of the analyzer's cost.
    let mut best: Option<(flcheck::report::Report, flcheck::ScanStats)> = None;
    for _ in 0..iters {
        let (report, stats) = match flcheck::run_with_stats(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("bench_flcheck: error scanning {}: {e}", root.display());
                return ExitCode::from(2);
            }
        };
        match &best {
            Some((_, b)) if b.total <= stats.total => {}
            _ => best = Some((report, stats)),
        }
    }
    let (report, stats) = best.expect("iters >= 1");

    let files = report.files_scanned;
    let secs = stats.total.as_secs_f64();
    let files_per_sec = if secs > 0.0 { files as f64 / secs } else { 0.0 };

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"flcheck\",");
    let _ = writeln!(json, "  \"iters\": {iters},");
    let _ = writeln!(json, "  \"files_scanned\": {files},");
    let _ = writeln!(json, "  \"findings\": {},", report.findings.len());
    let _ = writeln!(json, "  \"files_per_sec\": {files_per_sec:.1},");
    let _ = writeln!(json, "  \"wall_clock_seconds\": {{");
    let phases = [("per_file", stats.per_file), ("callgraph", stats.callgraph)];
    for (name, d) in phases.iter().chain(&stats.passes) {
        let _ = writeln!(json, "    \"{name}\": {:.6},", d.as_secs_f64());
    }
    let _ = writeln!(json, "    \"total\": {:.6}", stats.total.as_secs_f64());
    json.push_str("  }\n}\n");

    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_flcheck: error writing {}: {e}", out.display());
        return ExitCode::from(2);
    }
    print!("{json}");

    if write_baseline {
        let baseline =
            format!("{{\n  \"bench\": \"flcheck\",\n  \"files_per_sec\": {files_per_sec:.1}\n}}\n");
        if let Err(e) = std::fs::write(&baseline_path, baseline) {
            eprintln!(
                "bench_flcheck: error writing {}: {e}",
                baseline_path.display()
            );
            return ExitCode::from(2);
        }
        println!("baseline written to {}", baseline_path.display());
        return ExitCode::SUCCESS;
    }

    // Throughput regression gate against the committed baseline.
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match extract_number(&text, "files_per_sec") {
            Some(base) => {
                let floor = base * BASELINE_FLOOR;
                if files_per_sec < floor {
                    eprintln!(
                        "bench_flcheck: FAIL throughput regression: {files_per_sec:.1} \
                         files/sec < {floor:.1} ({BASELINE_FLOOR}x baseline {base:.1})"
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "throughput gate: {files_per_sec:.1} files/sec >= {floor:.1} \
                     ({BASELINE_FLOOR}x baseline {base:.1}) OK"
                );
            }
            None => {
                eprintln!(
                    "bench_flcheck: FAIL baseline {} has no files_per_sec",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        },
        Err(_) => {
            println!(
                "throughput gate: no baseline at {} (run --write-baseline)",
                baseline_path.display()
            );
        }
    }
    ExitCode::SUCCESS
}

/// Pulls `"key": <number>` out of a flat JSON object without a parser.
fn extract_number(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("bench_flcheck: {msg} (see --help)");
    ExitCode::from(2)
}
