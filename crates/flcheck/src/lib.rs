//! flcheck — workspace static analysis for the FLBooster reproduction.
//!
//! Federated-learning acceleration lives or dies on its cryptographic
//! core: the Montgomery/CIOS kernels in `mpint` and the Paillier/RSA
//! paths in `he` process secret plaintexts and private exponents, the GPU
//! simulator and pipeline are concurrent, and every library crate is
//! consumed by long-running training jobs that must not abort mid-epoch.
//! flcheck enforces three corresponding disciplines with a hand-rolled
//! lexer and zero external dependencies (the build environment has no
//! registry access):
//!
//! | family          | rules                                                    |
//! |-----------------|----------------------------------------------------------|
//! | ct-discipline   | `ct-branch`, `ct-return`, `ct-compare`, `ct-shortcircuit`|
//! | panic-freedom   | `pf-unwrap`, `pf-expect`, `pf-panic`, `pf-assert`, `pf-index` |
//! | lock-discipline | `ld-wait` (per-file), `lock-cycle`, `lock-across-hotpath`, `guard-across-steal`, `guard-escape` |
//! | cost-model      | `uncharged-work`, `stale-estimate`                       |
//! | determinism     | `nondet-in-result` (source-to-result-sink flow)          |
//! | races           | `race-shared-mut`, `race-unsynced-write`, `race-cell-steal` (closure captures crossing the pool) |
//! | width           | `lossy-narrow` (narrowing casts reaching codec/cost/net sinks) |
//! | units           | `unit-mismatch`, `unit-unconverted` (dimensional analysis over charging) |
//! | interprocedural | `ct-taint` (secret propagation), `pf-reach` (transitive panics) |
//!
//! The ct- and pf- families plus `ld-wait` are per-file lexer passes; the
//! rest run on a workspace call graph built by the item-level parser
//! ([`parse`], [`callgraph`], [`taint`], [`detflow`], [`escape`],
//! [`lockgraph`], [`costmodel`], [`races`], [`width`], [`units`]) and
//! report full call/lock/capture chains. See [`rules`] for rule
//! semantics and [`source`] for the directive grammar (`ct-fn`,
//! `secret(..)`, `lock(..)`, `mac-prim`, `charge-sink`,
//! `estimates(..)`, `det-sink`, `det-absorb`, `nondet(..)`,
//! `widen-ok(..)`, `narrow(..)`, `unit(..)`, and `convert(..)` markers,
//! `allow` / `allow-file` suppressions, `lock-order` declarations).
//!
//! The analyzer's own sources are excluded from the default walk: they
//! discuss directives and violations in documentation and fixtures, and
//! the tool is a dev-time binary, not part of the library surface. The
//! dependency shims are skipped too, with one exception: the rayon shim
//! hosts the work-stealing thread pool that every kernel launch runs on,
//! so its lock discipline (per-worker deques vs the shared panic slot) is
//! checked like any first-party crate.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod costmodel;
pub mod detflow;
pub mod escape;
pub mod explain;
pub mod lexer;
pub mod lockgraph;
pub mod parse;
pub mod races;
pub mod report;
pub mod rules;
pub mod source;
pub mod taint;
pub mod units;
pub mod width;

use rayon::prelude::*;
use report::{Finding, Report};
use source::SourceFile;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Library crates subject to the panic-freedom rules. `bench` (a binary
/// crate), the dependency shims, and flcheck itself are out of scope.
pub const PANIC_FREEDOM_CRATES: &[&str] = &["mpint", "he", "codec", "core", "fl", "gpu-sim"];

/// Path components that terminate the walk.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "flcheck", "fixtures"];

/// Directories re-included despite a skipped ancestor: the rayon shim is
/// real concurrent runtime code (workers, deques, a shared panic slot),
/// not a thin API veneer, so its lock discipline is analyzed.
const RESCAN_DIRS: &[&str] = &["rayon"];

/// True when the panic-freedom family applies to this workspace-relative
/// path (non-test source of a library crate).
pub fn panic_rules_apply(rel_path: &str) -> bool {
    PANIC_FREEDOM_CRATES
        .iter()
        .any(|c| rel_path.starts_with(&format!("crates/{c}/src/")))
}

/// Analyzes one file's source text with the intraprocedural rule
/// families only. `rel_path` selects which apply (panic-freedom is
/// scoped by crate; ct- and lock-discipline run everywhere
/// markers/locks appear). The interprocedural passes need the whole
/// workspace — see [`check_workspace`].
pub fn check_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, src);
    let mut out = Vec::new();
    rules::check_ct(&file, &mut out);
    if panic_rules_apply(rel_path) {
        rules::check_panics(&file, &mut out);
    }
    rules::check_locks(&file, &mut out);
    out
}

/// Wall-clock timings for each analysis phase of a workspace scan, used
/// by the self-benchmark (`bench_flcheck`) and available to any caller
/// via [`check_workspace_with_stats`]. Timings never influence report
/// content — the report is byte-identical whatever these read.
#[derive(Debug, Default, Clone)]
pub struct ScanStats {
    /// Per-file phase (lexing + intraprocedural rules + item parsing),
    /// wall-clock across the parallel map, not summed per file.
    pub per_file: Duration,
    /// Call-graph construction.
    pub callgraph: Duration,
    /// `ct-taint` secret-propagation pass.
    pub taint: Duration,
    /// `pf-reach` panic-propagation pass.
    pub reach: Duration,
    /// `nondet-in-result` determinism-flow pass.
    pub detflow: Duration,
    /// `guard-escape` pass (escape findings + the returned-guard map the
    /// lock graph consumes).
    pub escape: Duration,
    /// Lock-graph pass (`lock-cycle`, `lock-across-hotpath`,
    /// `guard-across-steal`).
    pub lockgraph: Duration,
    /// Cost-model pass (`uncharged-work`, `stale-estimate`).
    pub costmodel: Duration,
    /// Race pass (`race-shared-mut`, `race-unsynced-write`,
    /// `race-cell-steal`).
    pub races: Duration,
    /// Width pass (`lossy-narrow`).
    pub width: Duration,
    /// Unit-flow pass (`unit-mismatch`, `unit-unconverted`).
    pub units: Duration,
    /// Whole scan, including sort.
    pub total: Duration,
}

/// Analyzes a whole workspace given as (workspace-relative path, source)
/// pairs: the per-file rule families (fanned out over the rayon
/// work-stealing pool), then the call graph and the interprocedural
/// passes (`ct-taint`, `pf-reach`, `nondet-in-result`, `guard-escape`,
/// the lock-graph rules, the cost-model rules, the race rules, the
/// width rules, and the unit-flow rules) on top.
pub fn check_workspace(inputs: &[(String, String)]) -> Report {
    check_workspace_with_stats(inputs).0
}

/// [`check_workspace`], additionally returning per-phase wall-clock
/// timings. The per-file phase runs as a parallel map over the input
/// list; every downstream pass consumes the collected results in input
/// order, so findings (and the rendered report) are independent of
/// thread count.
pub fn check_workspace_with_stats(inputs: &[(String, String)]) -> (Report, ScanStats) {
    let start = Instant::now();
    let mut stats = ScanStats::default();
    let mut report = Report::default();

    let t = Instant::now();
    let per_file: Vec<(Vec<Finding>, parse::ParsedFile)> = inputs
        .par_iter()
        .map(|(rel, src)| (check_file(rel, src), parse::ParsedFile::parse(rel, src)))
        .collect();
    stats.per_file = t.elapsed();
    let mut parsed = Vec::with_capacity(inputs.len());
    for (findings, file) in per_file {
        report.findings.extend(findings);
        parsed.push(file);
        report.files_scanned += 1;
    }

    let t = Instant::now();
    let graph = callgraph::CallGraph::build(&parsed);
    stats.callgraph = t.elapsed();

    let t = Instant::now();
    taint::check_taint(&parsed, &graph, &mut report.findings);
    stats.taint = t.elapsed();

    let t = Instant::now();
    callgraph::check_reach(&parsed, &graph, &mut report.findings);
    stats.reach = t.elapsed();

    let t = Instant::now();
    detflow::check_detflow(&parsed, &graph, &mut report.findings);
    stats.detflow = t.elapsed();

    let t = Instant::now();
    let escape_info = escape::analyze(&parsed, &graph, &mut report.findings);
    stats.escape = t.elapsed();

    let t = Instant::now();
    lockgraph::check_lock_graph(&parsed, &graph, &escape_info, &mut report.findings);
    stats.lockgraph = t.elapsed();

    let t = Instant::now();
    costmodel::check_cost_model(&parsed, &graph, &mut report.findings);
    stats.costmodel = t.elapsed();

    let t = Instant::now();
    races::check_races(&parsed, &graph, &mut report.findings);
    stats.races = t.elapsed();

    let t = Instant::now();
    width::check_width(&parsed, &graph, &mut report.findings);
    stats.width = t.elapsed();

    let t = Instant::now();
    units::check_units(&parsed, &graph, &mut report.findings);
    stats.units = t.elapsed();

    report.sort();
    stats.total = start.elapsed();
    (report, stats)
}

/// Recursively collects the `.rs` files to analyze under `root`,
/// workspace-relative, sorted for deterministic reports.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.starts_with('.') {
                    continue;
                }
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                } else if name == "shims" {
                    // Descend selectively: most shims are inert API
                    // veneers, but RESCAN_DIRS members carry real
                    // concurrency worth checking.
                    for sub in std::fs::read_dir(&path)? {
                        let sub = sub?;
                        let sub_name = sub.file_name();
                        let sub_path = sub.path();
                        if sub_path.is_dir()
                            && RESCAN_DIRS.contains(&sub_name.to_string_lossy().as_ref())
                        {
                            stack.push(sub_path);
                        }
                    }
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Runs the full analysis over a workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    Ok(run_with_stats(root)?.0)
}

/// [`run`], additionally returning per-phase wall-clock timings.
pub fn run_with_stats(root: &Path) -> std::io::Result<(Report, ScanStats)> {
    let mut inputs = Vec::new();
    for path in collect_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&path)?;
        inputs.push((rel, src));
    }
    Ok(check_workspace_with_stats(&inputs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_scope_is_path_based() {
        assert!(panic_rules_apply("crates/mpint/src/limb.rs"));
        assert!(panic_rules_apply("crates/gpu-sim/src/device.rs"));
        assert!(!panic_rules_apply("crates/bench/src/main.rs"));
        assert!(!panic_rules_apply("crates/shims/rand/src/lib.rs"));
        assert!(!panic_rules_apply("src/lib.rs"));
        assert!(!panic_rules_apply("crates/mpint/tests/props.rs"));
    }

    #[test]
    fn check_file_routes_rules_by_path() {
        let src = "fn f(v: &[u8]) -> u8 { v.first().unwrap(); v[0] }";
        let in_scope = check_file("crates/he/src/x.rs", src);
        assert_eq!(in_scope.len(), 2);
        let out_of_scope = check_file("crates/bench/src/x.rs", src);
        assert!(out_of_scope.is_empty());
    }

    #[test]
    fn rayon_shim_is_scanned_but_other_shims_are_not() {
        // Walk from the workspace root two levels up from this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .unwrap()
            .to_path_buf();
        let files = collect_files(&root).unwrap();
        let rel: Vec<String> = files
            .iter()
            .map(|p| {
                p.strip_prefix(&root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/")
            })
            .collect();
        assert!(
            rel.iter().any(|p| p == "crates/shims/rayon/src/pool.rs"),
            "pool.rs must be in the walk: {rel:?}"
        );
        assert!(
            !rel.iter()
                .any(|p| p.starts_with("crates/shims/parking_lot/")),
            "inert shims stay excluded"
        );
        // Lock discipline applies to the shim; panic-freedom does not
        // (it is still outside PANIC_FREEDOM_CRATES).
        assert!(!panic_rules_apply("crates/shims/rayon/src/pool.rs"));
    }
}
