//! `flbench`: the repository's benchmark.
//!
//! One process measures one workload:
//!
//! ```text
//! flbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints every metric as `workload metric value unit` and ends with one
//! JSON line `{"correct", "attempted", "failed", "metrics"}`. An untraced
//! run reports the end-to-end metrics; a traced run reports the per-layer
//! metrics and writes `trace_<workload>.json`. `--set <file>` runs every
//! workload, each in a process of its own, `--compare <a> <b>` holds two
//! such sets against the bounds, and `--list` / `--describe` print the
//! workload and metric names. README.md has the glossary.

mod api;
mod host;
mod json;
mod ledger;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use api::Res;
use host::Reference;
use json::Value;
use ledger::EpochFacts;
use metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use trace::{Counts, Tracer};
use workloads::{Kind, Plan, Shape, UnitOut, Workload};

/// The seed a run uses when none is given (and the committed result sets
/// were made with).
const DEFAULT_SEED: u64 = 0xF1B0;
const DEFAULT_SECONDS: f64 = 20.0;
/// Shares of a traced run's `--seconds` spent on epoch samples and on the
/// ledger; the oracle and the operations that overrun take the rest.
const TRACED_SAMPLING_SHARE: f64 = 0.35;
const TRACED_LEDGER_SHARE: f64 = 0.45;
/// Reference samples that follow one set-up repetition.
const MIN_SETUP_REFERENCES: usize = 1;
const MAX_SETUP_REFERENCES: usize = 9;
/// Sampling gives up on reaching `min_samples` after this many times the
/// requested seconds.
const OVERRUN_FACTOR: f64 = 3.0;

/// How far two runs of the same code may differ on each end-to-end
/// metric (`BENCHMARK.json` carries the same numbers), and whether the
/// metric repeats exactly when the seed does.
struct Bound {
    name: &'static str,
    bound: f64,
    exact_for_same_seed: bool,
}

const BOUNDS: &[Bound] = &[
    Bound {
        name: "setup_s",
        bound: 0.25,
        exact_for_same_seed: false,
    },
    Bound {
        name: "epoch_wall_ms",
        bound: 0.15,
        exact_for_same_seed: false,
    },
    Bound {
        name: "epoch_sim_s",
        bound: 0.001,
        exact_for_same_seed: true,
    },
    Bound {
        name: "epoch_wire_bytes",
        bound: 0.001,
        exact_for_same_seed: true,
    },
    Bound {
        name: "train_loss",
        bound: 0.005,
        exact_for_same_seed: true,
    },
    Bound {
        name: "peak_rss_mb",
        bound: 0.15,
        exact_for_same_seed: false,
    },
];

struct Args {
    values: BTreeMap<String, Vec<String>>,
}

impl Args {
    /// `--name v1 v2 ...` pairs; a flag may have no value.
    fn parse(args: impl Iterator<Item = String>) -> Res<Args> {
        let mut values: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut current = None;
        for arg in args {
            if let Some(name) = arg.strip_prefix("--") {
                values.entry(name.to_string()).or_default();
                current = Some(name.to_string());
            } else {
                let name = current
                    .as_ref()
                    .ok_or(format!("unexpected argument {arg:?}"))?;
                values.entry(name.clone()).or_default().push(arg);
            }
        }
        Ok(Args { values })
    }

    fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn one(&self, name: &str) -> Option<&str> {
        self.values.get(name)?.first().map(String::as_str)
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Res<T> {
        match self.one(name) {
            None => Ok(default),
            Some(text) => parse_number(text).ok_or(format!("--{name}: cannot read {text:?}")),
        }
    }
}

/// Decimal, or hexadecimal with a `0x` prefix for integers.
fn parse_number<T: std::str::FromStr>(text: &str) -> Option<T> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok()?.to_string().parse().ok(),
        None => text.parse().ok(),
    }
}

/// Facts about the measuring host, recorded in every output.
struct Host {
    nproc: usize,
    pool_threads: usize,
    rustc: String,
    profile: &'static str,
}

impl Host {
    fn detect(args: &Args) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: api::pool_threads(),
            rustc: args.one("rustc").unwrap_or("unknown").to_string(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }

    fn pairs(&self) -> Vec<(String, String)> {
        vec![
            ("nproc".to_string(), self.nproc.to_string()),
            ("pool_threads".to_string(), self.pool_threads.to_string()),
            ("rustc".to_string(), self.rustc.clone()),
            ("profile".to_string(), self.profile.to_string()),
        ]
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .pairs()
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json::escape(k), json::escape(v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("flbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` means the run completed and found a failure.
fn real_main() -> Res<bool> {
    let args = Args::parse(std::env::args().skip(1))?;
    let plan = Plan::load()?;
    if args.has("list") {
        for shape in &plan.shapes {
            println!("{}", shape.name);
        }
        return Ok(true);
    }
    if args.has("describe") {
        for (kind, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            for d in defs {
                println!("{kind} {} {} {}", d.name, d.unit, d.better);
            }
        }
        return Ok(true);
    }
    if let Some(files) = args.values.get("compare") {
        let [a, b] = files.as_slice() else {
            return Err("--compare takes two result sets".to_string());
        };
        return compare_sets(Path::new(a), Path::new(b));
    }
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    // `--trace` alone means `--trace 1`.
    let traced = match args.one("trace") {
        None => args.has("trace"),
        Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let host = Host::detect(&args);
    let out_dir = PathBuf::from(args.one("out").unwrap_or("benchmark/out"));
    if let Some(set_file) = args.one("set") {
        return run_set(
            &plan,
            &args,
            &host,
            seed,
            seconds,
            traced,
            Path::new(set_file),
        );
    }
    let name = args
        .one("workload")
        .ok_or("--workload <name> is required (see --list)")?;
    let shape = plan
        .shape(name)
        .ok_or_else(|| format!("unknown workload {name:?} (see --list)"))?;
    println!(
        "# flbench workload={name} seed={seed} seconds={seconds} trace={} host={}",
        u8::from(traced),
        host.json()
    );
    let outcome = if traced {
        run_traced(shape, &plan, seed, seconds, &host, &out_dir)?
    } else {
        run_untraced(shape, &plan, seed, seconds)?
    };
    outcome.print(name)
}

/// What one run measured.
struct Outcome {
    defs: &'static [MetricDef],
    report: Report,
    /// Lines of information beside the metrics: `(name, value, unit)`.
    info: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    /// Prints `workload metric value unit` lines and the result line.
    fn print(&self, workload: &str) -> Res<bool> {
        let values = self.report.ordered(self.defs)?;
        for (def, v) in &values {
            println!("{workload} {} {} {}", def.name, json::number(*v), def.unit);
        }
        for (name, v, unit) in &self.info {
            println!("{workload} {name} {} {unit}", json::number(*v));
        }
        println!("{workload} ops_attempted {} count", self.attempted);
        println!("{workload} ops_failed {} count", self.failed);
        let correct = self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted.max(1),
            self.failed,
            metrics::metrics_json(&values)
        );
        Ok(correct)
    }
}

/// Samples of the timed unit, with failures counted rather than hidden.
#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    /// The host reference sample taken right after each unit sample.
    refs_ms: Vec<f64>,
    first: Option<UnitOut>,
    attempted: u64,
    failed: u64,
}

impl Samples {
    /// One more sample, followed at once by a host reference sample when
    /// `reference` is given. An error, result bits that differ from the
    /// first sample's, or a failed cross-check inside the unit is a
    /// failure.
    fn take(&mut self, w: &Workload, tracer: &mut Tracer, reference: Option<&Reference>) {
        self.attempted += 1;
        match w.unit(tracer, self.wall_ms.len() as u32) {
            Err(e) => {
                eprintln!("flbench: sample failed: {e}");
                self.failed += 1;
            }
            Ok(out) => {
                let first = self.first.get_or_insert(out);
                if out.fingerprint != first.fingerprint || !out.consistent {
                    self.failed += 1;
                }
                self.wall_ms.push(out.wall_ns as f64 / 1e6);
                if let Some(reference) = reference {
                    self.refs_ms.push(reference.run_ms());
                }
            }
        }
    }

    /// Samples until `budget` is spent and at least `min` were taken.
    fn run_for(
        &mut self,
        w: &Workload,
        tracer: &mut Tracer,
        reference: &Reference,
        budget: Duration,
        min: usize,
    ) {
        let start = Instant::now();
        let give_up = budget.mul_f64(OVERRUN_FACTOR);
        loop {
            let elapsed = start.elapsed();
            let enough = self.wall_ms.len() >= min;
            if (elapsed >= budget && enough) || elapsed >= give_up {
                break;
            }
            self.take(w, tracer, Some(reference));
        }
    }

    fn first(&self) -> Res<&UnitOut> {
        self.first
            .as_ref()
            .ok_or_else(|| "every sample failed".to_string())
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn run_untraced(shape: &Shape, plan: &Plan, seed: u64, seconds: f64) -> Res<Outcome> {
    let mut tracer = Tracer::new(false);
    let reference = plan.reference(shape);
    // Set-up of a training workload is serial (prime search, dataset
    // generation), so its reference is one thread wide; on the server
    // workload it is dominated by encrypting the uploads on the pool.
    let setup_reference = match shape.kind {
        Kind::Train(_) => Reference {
            tasks: 1,
            threads: 1,
            ..reference
        },
        Kind::ServerAgg => reference,
    };
    // Set-up, repeated in-process. Prime search makes key generation a
    // matter of luck, so every repetition draws its own key pair and the
    // median is reported; the last one uses the run's seed and is kept.
    // Each repetition's state is dropped before the next is built so the
    // memory peak is one workload's.
    let (mut setup_ms, mut setup_refs_ms) = (Vec::new(), Vec::new());
    let mut built = None;
    for rep in (0..shape.setup_repeats as u64).rev() {
        drop(built.take());
        let key_seed = seed ^ rep.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let start = Instant::now();
        built = Some(Workload::setup(shape, plan, key_seed)?);
        let took_ms = start.elapsed().as_secs_f64() * 1e3;
        setup_ms.push(took_ms);
        // Set-up outlasts one reference sample: follow it with reference
        // samples for about as long, and pair it with their median.
        let block = ((took_ms / setup_reference.nominal_ms()).round() as usize)
            .clamp(MIN_SETUP_REFERENCES, MAX_SETUP_REFERENCES);
        let refs: Vec<f64> = (0..block).map(|_| setup_reference.run_ms()).collect();
        setup_refs_ms.push(stats::median(&refs));
    }
    let w = built.ok_or("no set-up repetition ran")?;

    let mut warmup = Samples::default();
    for _ in 0..plan.warmup_samples {
        warmup.take(&w, &mut tracer, None);
    }
    let mut samples = Samples::default();
    let budget = Duration::from_secs_f64(seconds);
    samples.run_for(&w, &mut tracer, &reference, budget, plan.min_samples);
    let first = *samples.first()?;
    let verdict = w.verify(&mut tracer, plan)?;

    let mut report = Report::default();
    report.set(
        "setup_s",
        setup_reference.normalize_ms(&setup_ms, &setup_refs_ms) / 1e3,
    );
    report.set(
        "epoch_wall_ms",
        reference.normalize_ms(&samples.wall_ms, &samples.refs_ms),
    );
    report.set("epoch_sim_s", first.cost.sim_s);
    report.set("epoch_wire_bytes", first.cost.wire_bytes as f64);
    report.set("train_loss", verdict.train_loss);
    report.set("peak_rss_mb", peak_rss_mb()?);
    Ok(Outcome {
        defs: END_TO_END,
        report,
        info: vec![
            (
                "epoch_wall_raw_floor_ms",
                stats::floor(&samples.wall_ms),
                "ms",
            ),
            (
                "epoch_wall_raw_p50_ms",
                stats::percentile(&samples.wall_ms, 50.0),
                "ms",
            ),
            (
                "epoch_wall_raw_p90_ms",
                stats::percentile(&samples.wall_ms, 90.0),
                "ms",
            ),
            ("epoch_samples", samples.wall_ms.len() as f64, "count"),
            ("setup_raw_median_s", stats::median(&setup_ms) / 1e3, "s"),
            (
                "host_slowdown",
                reference.slowdown(&samples.refs_ms),
                "ratio",
            ),
        ],
        attempted: samples.attempted + warmup.attempted + verdict.checks,
        failed: samples.failed + warmup.failed + verdict.failed,
    })
}

fn run_traced(
    shape: &Shape,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    host: &Host,
    out_dir: &Path,
) -> Res<Outcome> {
    let mut tracer = Tracer::new(true);
    let w = tracer.span("setup", "setup", 0, Counts::default(), |_| {
        Workload::setup(shape, plan, seed)
    })?;

    let reference = plan.reference(shape);
    let mut quiet = Tracer::new(false);
    let mut warmup = Samples::default();
    for _ in 0..plan.warmup_samples {
        warmup.take(&w, &mut quiet, None);
    }
    // Untraced and traced samples alternate, so that host drift hits the
    // two floors behind `trace.overhead_pct` alike.
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    let budget = Duration::from_secs_f64(seconds * TRACED_SAMPLING_SHARE);
    let start = Instant::now();
    while traced.attempted < plan.traced_samples as u64 || start.elapsed() < budget {
        untraced.take(&w, &mut quiet, Some(&reference));
        traced.take(&w, &mut tracer, None);
    }
    let first = *untraced.first()?;
    let verdict = w.verify(&mut tracer, plan)?;

    let facts = EpochFacts {
        untraced_wall_ms: untraced.wall_ms.clone(),
        traced_wall_ms: traced.wall_ms.clone(),
        host_slowdown: reference.slowdown(&untraced.refs_ms),
        cost: first.cost,
        net: first.net,
    };
    let mut report = Report::default();
    let ledger_budget = Duration::from_secs_f64(seconds * TRACED_LEDGER_SHARE);
    let (ledger_attempted, ledger_failed) =
        ledger::run(&w, plan, &mut tracer, ledger_budget, &facts, &mut report)?;

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_file = out_dir.join(format!("trace_{}.json", shape.name));
    let mut meta = host.pairs();
    meta.push(("seed".to_string(), seed.to_string()));
    std::fs::write(&trace_file, tracer.to_chrome_json(&shape.name, &meta))
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    println!(
        "# trace {} spans {}",
        trace_file.display(),
        tracer.spans().len()
    );

    Ok(Outcome {
        defs: PER_LAYER,
        report,
        info: Vec::new(),
        attempted: untraced.attempted
            + traced.attempted
            + warmup.attempted
            + verdict.checks
            + ledger_attempted,
        failed: untraced.failed + traced.failed + warmup.failed + verdict.failed + ledger_failed,
    })
}

/// Runs every workload, each in a process of its own (so that each has
/// its own peak memory), echoes what they print and writes their result
/// lines into one set file.
fn run_set(
    plan: &Plan,
    args: &Args,
    host: &Host,
    seed: u64,
    seconds: f64,
    traced: bool,
    file: &Path,
) -> Res<bool> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for shape in &plan.shapes {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", &shape.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--rustc", &host.rustc]);
        if let Some(out) = args.one("out") {
            cmd.args(["--out", out]);
        }
        // `output` waits for the child to end.
        let output = cmd
            .output()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = stdout.lines().last().unwrap_or("");
        match json::parse(last) {
            Ok(result) if result.get("metrics").is_some() => {
                all_correct &= output.status.success();
                entries.push(format!("    \"{}\": {last}", json::escape(&shape.name)));
            }
            _ => {
                return Err(format!(
                    "{}: no result line ({})",
                    shape.name, output.status
                ))
            }
        }
    }
    let doc = format!(
        "{{\n  \"host\": {},\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"trace\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host.json(),
        json::number(seconds),
        u8::from(traced),
        entries.join(",\n")
    );
    if let Some(dir) = file.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(file, doc).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("# set written to {}", file.display());
    Ok(all_correct)
}

/// One end-to-end metric of one workload in two sets: `Ok` with a line to
/// print, or `Err` with the disagreement.
fn compare_metric(bound: &Bound, a: f64, b: f64, same_seed: bool) -> Result<String, String> {
    let rel = if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs().max(f64::MIN_POSITIVE)
    };
    let line = format!(
        "{} a={} b={} diff={:.3}%",
        bound.name,
        json::number(a),
        json::number(b),
        rel * 100.0
    );
    if same_seed && bound.exact_for_same_seed {
        if a == b {
            Ok(line)
        } else {
            Err(format!("{line} (must repeat exactly)"))
        }
    } else if rel <= bound.bound {
        Ok(line)
    } else {
        Err(format!("{line} (bound {}%)", bound.bound * 100.0))
    }
}

/// Holds two sets of untraced runs of the same code against the bounds.
fn compare_sets(a: &Path, b: &Path) -> Res<bool> {
    let load = |p: &Path| -> Res<Value> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a)?, load(b)?);
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let runs = |set: &Value| set.get("workloads").and_then(Value::as_obj).cloned();
    let (runs_a, runs_b) = (
        runs(&a).ok_or("first set has no workloads")?,
        runs(&b).ok_or("second set has no workloads")?,
    );
    let mut agree = true;
    for (workload, run_a) in &runs_a {
        let run_b = runs_b
            .get(workload)
            .ok_or(format!("{workload} missing from the second set"))?;
        for run in [run_a, run_b] {
            if run.get("failed").and_then(Value::as_f64) != Some(0.0) {
                println!("DISAGREE {workload} has failed operations");
                agree = false;
            }
        }
        for bound in BOUNDS {
            let value = |run: &Value| {
                run.get("metrics")
                    .and_then(|m| m.get(bound.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or(format!("{workload} has no {}", bound.name))
            };
            match compare_metric(bound, value(run_a)?, value(run_b)?, same_seed) {
                Ok(line) => println!("ok       {workload} {line}"),
                Err(line) => {
                    println!("DISAGREE {workload} {line}");
                    agree = false;
                }
            }
        }
    }
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_take_flags_values_and_hexadecimal_seeds() {
        let args = Args::parse(
            [
                "--seed",
                "0xF1B0",
                "--trace",
                "--compare",
                "a.json",
                "b.json",
                "--seconds",
                "2.5",
            ]
            .into_iter()
            .map(String::from),
        )
        .unwrap();
        assert_eq!(args.number("seed", 0u64), Ok(0xF1B0));
        assert_eq!(args.number("seconds", 0.0f64), Ok(2.5));
        assert_eq!(args.number("missing", 7u32), Ok(7));
        assert!(args.has("trace") && args.one("trace").is_none());
        assert_eq!(args.values["compare"], ["a.json", "b.json"]);
        assert!(Args::parse(["stray".to_string()].into_iter()).is_err());
        assert!(args.number::<u64>("trace", 0).is_ok());
        let bad = Args::parse(["--seed", "x"].into_iter().map(String::from)).unwrap();
        assert!(bad.number::<u64>("seed", 0).is_err());
    }

    #[test]
    fn bounds_cover_exactly_the_end_to_end_metrics_and_match_benchmark_json() {
        let names: Vec<&str> = BOUNDS.iter().map(|b| b.name).collect();
        let defs: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
        assert_eq!(names, defs);
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (entry, bound) in doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(BOUNDS)
        {
            assert_eq!(
                entry.get("bound").unwrap().as_f64(),
                Some(bound.bound),
                "{}",
                bound.name
            );
            assert!(bound.bound <= 0.25);
        }
    }

    #[test]
    fn comparison_is_relative_to_the_first_set_and_exact_where_it_must_be() {
        let wall = &BOUNDS[1];
        assert_eq!(wall.bound, 0.15);
        assert!(compare_metric(wall, 100.0, 114.9, true).is_ok());
        assert!(compare_metric(wall, 100.0, 85.1, true).is_ok());
        assert!(compare_metric(wall, 100.0, 116.0, true).is_err());
        let sim = &BOUNDS[2];
        assert!(compare_metric(sim, 0.004, 0.004, true).is_ok());
        assert!(compare_metric(sim, 0.004, 0.004000001, true).is_err());
        assert!(compare_metric(sim, 0.004, 0.004000001, false).is_ok());
        assert!(compare_metric(sim, 0.004, 0.0041, false).is_err());
    }
}
