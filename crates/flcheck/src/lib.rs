//! flcheck — workspace static analysis for the FLBooster reproduction.
//!
//! Federated-learning acceleration lives or dies on its cryptographic
//! core: the Montgomery/CIOS kernels in `mpint` and the Paillier/RSA
//! paths in `he` process secret plaintexts and private exponents, the GPU
//! simulator and pipeline are concurrent, and every library crate is
//! consumed by long-running training jobs that must not abort mid-epoch.
//! flcheck checks the disciplines rustc and clippy cannot — constant-time
//! code, release asserts, leaf locks, integer width —
//! with a hand-rolled lexer and zero external dependencies (the build
//! environment has no registry access). What rustc *can* check it leaves
//! to rustc: data-race freedom of closures crossing the host thread pool
//! is the `Fn + Sync` bound on the rayon shim's entry points plus
//! `forbid(unsafe_code)`, pinned by `compile_fail` doctests on the shim;
//! seconds never meeting counts is `f64` versus `u64`, pinned by
//! `compile_fail` doctests on `fl::metrics::EpochBreakdown::charge` and
//! `fl::net::Network::send`; a batched HE op whose cost nobody charges is
//! a dropped `#[must_use]` `he::ghe::HeTiming` / `fl::backend::AccelTiming`,
//! pinned by a `compile_fail` doctest on `AccelTiming`; an op-cost
//! estimator still pricing the kernel it names is a typed fn pointer in
//! `crates/he/tests/golden_schedule.rs`; key material that is never
//! compared, printed or indexed is `mpint::ct::Secret`, pinned by
//! `compile_fail` doctests on it. What clippy can check it leaves
//! to clippy: `unwrap`, `expect`, the `panic!` family and indexing in the
//! library crates are denied by the root manifest's
//! `[workspace.lints.clippy]` table, and hash collections, clocks,
//! thread-width reads, pool drives outside the drive homes DESIGN §11
//! lists, the unchecked ciphertext ops and reads of a `Secret` are banned
//! by `crates/clippy.toml`.
//!
//! The design is three layers:
//!
//! - [`registry::RULES`] is the one table of rules (id, family, emitting
//!   pass, documentation); `--rules`, `--explain`, the JSON
//!   summary and the README table all derive from it.
//! - [`PASSES`] is the one list of interprocedural passes;
//!   [`check_workspace`] runs the per-file phase
//!   ([`check_file`]: the lexer-level ct- and `pf-assert` rules, see
//!   [`rules`]), builds the [`callgraph`], then runs the list in order.
//! - The passes ([`rules::check_lock_leaf`], [`width`]) share
//!   one call-graph walk (the closures and paths of
//!   [`callgraph::CallGraph`]) and one token-statement scanner (`scan`),
//!   and report full call chains.
//!
//! See [`source`] for the directive grammar (`ct-fn`, `widen-ok(..)` and
//! `narrow(..)` markers, `allow` / `allow-file` suppressions).
//!
//! The analyzer's own sources are excluded from the default walk: they
//! discuss directives and violations in documentation and fixtures, and
//! the tool is a dev-time binary, not part of the library surface. The
//! dependency shims are skipped too, with one exception: the rayon shim
//! hosts the thread pool that every kernel launch runs on, so its locks
//! (the take-once item slots, the shared panic slot) are checked like
//! any first-party crate's.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![allow(
    clippy::disallowed_methods,
    reason = "a dev tool: its report is sorted whatever the pool width"
)]

pub mod callgraph;
pub mod lexer;
pub mod parse;
pub mod registry;
pub mod report;
pub mod rules;
mod scan;
pub mod source;
pub mod width;

use callgraph::CallGraph;
use parse::ParsedFile;
use rayon::prelude::*;
use report::{Finding, Report};
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Library crates subject to panic freedom: `pf-assert` here, and the
/// root manifest's clippy table, which each of them opts into with
/// `[lints] workspace = true`. `bench` (a binary crate), the dependency
/// shims, and flcheck itself are out of scope.
pub const PANIC_FREEDOM_CRATES: &[&str] = &["mpint", "he", "codec", "core", "fl", "gpu-sim"];

/// Path components that terminate the walk.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "flcheck", "fixtures"];

/// Directories re-included despite a skipped ancestor: the rayon shim is
/// real concurrent runtime code (scoped workers, a shared panic slot,
/// take-once item cells), not a thin API veneer, so its locks are analyzed.
const RESCAN_DIRS: &[&str] = &["rayon"];

/// True when `pf-assert` applies to this workspace-relative
/// path (non-test source of a library crate).
pub fn panic_rules_apply(rel_path: &str) -> bool {
    PANIC_FREEDOM_CRATES
        .iter()
        .any(|c| rel_path.starts_with(&format!("crates/{c}/src/")))
}

/// Analyzes one file's source text with the intraprocedural rule
/// families only. `rel_path` selects which apply (panic-freedom is
/// scoped by crate; ct-discipline runs wherever markers appear). The
/// interprocedural passes, `lock-leaf` among them, need the whole
/// workspace — see [`check_workspace`].
pub fn check_file(rel_path: &str, src: &str) -> Vec<Finding> {
    let file = SourceFile::parse(rel_path, src);
    let mut out = Vec::new();
    rules::check_ct(&file, &mut out);
    if panic_rules_apply(rel_path) {
        rules::check_panics(&file, &mut out);
    }
    out
}

/// An interprocedural pass: reads the parsed workspace and its call
/// graph, appends findings.
pub type Pass = fn(&[ParsedFile], &CallGraph, &mut Vec<Finding>);

/// The interprocedural passes, in the order a scan runs them. Each
/// rule's [`registry::Rule::pass`] names the entry that emits it.
pub const PASSES: &[(&str, Pass)] = &[
    ("lock_leaf", rules::check_lock_leaf),
    ("width", width::check_width),
];

/// Analyzes a whole workspace given as (workspace-relative path, source)
/// pairs: the per-file rule families as a parallel map over the rayon
/// shim's pool, one file per task, then the call graph and every pass of [`PASSES`]
/// on top. Every pass consumes the per-file results in input order, so
/// findings (and the rendered report) are independent of thread count.
pub fn check_workspace(inputs: &[(String, String)]) -> Report {
    let mut report = Report::default();
    let per_file: Vec<(Vec<Finding>, ParsedFile)> = inputs
        .par_iter()
        .map(|(rel, src)| (check_file(rel, src), ParsedFile::parse(rel, src)))
        .collect();
    let mut parsed = Vec::with_capacity(inputs.len());
    for (findings, file) in per_file {
        report.findings.extend(findings);
        parsed.push(file);
        report.files_scanned += 1;
    }
    let graph = CallGraph::build(&parsed);
    for &(_, pass) in PASSES {
        pass(&parsed, &graph, &mut report.findings);
    }
    report.sort();
    report
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
    Ok(check_workspace(&inputs))
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
        let src = "fn f(v: &[u8]) -> u8 { assert!(v.len() > 1); assert_eq!(v[0], 1); v[1] }";
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
        // `lock-leaf` applies to the shim; `pf-assert` does not
        // (it is still outside PANIC_FREEDOM_CRATES).
        assert!(!panic_rules_apply("crates/shims/rayon/src/pool.rs"));
    }
}
