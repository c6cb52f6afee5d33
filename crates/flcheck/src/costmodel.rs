//! Cost-model conformance: an op-count estimate must still price the
//! kernel it names.
//!
//! The simulated-time results (Tables III–VII) are only as good as the
//! pairing between the kernels that do the work and the estimates that
//! charge for it. `// flcheck: estimates(kernel, arity)` marks a fn as
//! the op-count estimate paired with `kernel`, which must still exist
//! with that many parameters. **stale-estimate** fires when the kernel
//! vanished or changed arity, i.e. an estimate drifting from the code it
//! models. Same-file kernels win over cross-file namesakes, mirroring
//! call-graph resolution.
//!
//! That every batched HE op *is* charged is not this pass's job: the
//! timing it returns is `#[must_use]` (DESIGN §10, "Retired families").

use crate::callgraph::{hop, CallGraph, NodeId};
use crate::parse::ParsedFile;
use crate::report::Finding;
use std::collections::HashMap;

/// Runs the cost-model pass (`stale-estimate`).
pub fn check_cost_model(files: &[ParsedFile], _graph: &CallGraph, out: &mut Vec<Finding>) {
    // All non-test fns by name, for kernel existence/arity checks.
    let mut by_name: HashMap<&str, Vec<NodeId>> = HashMap::new();
    for (fi, pf) in files.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            if !f.in_test {
                by_name.entry(f.name.as_str()).or_default().push((fi, gi));
            }
        }
    }
    for (fi, pf) in files.iter().enumerate() {
        for f in &pf.fns {
            if f.in_test || f.marks.estimates.is_empty() {
                continue;
            }
            for (kernel, arity) in &f.marks.estimates {
                if pf.src.is_allowed("stale-estimate", f.line) {
                    continue;
                }
                let mut cands: Vec<NodeId> =
                    by_name.get(kernel.as_str()).cloned().unwrap_or_default();
                if cands.iter().any(|&(cf, _)| cf == fi) {
                    cands.retain(|&(cf, _)| cf == fi);
                }
                if cands.is_empty() {
                    out.push(Finding::with_chain(
                        "stale-estimate",
                        &pf.src.rel_path,
                        f.line,
                        format!(
                            "estimate fn `{}` pairs kernel `{kernel}`, which no longer \
                             exists: update or remove the estimates(..) directive",
                            f.name
                        ),
                        vec![format!("{} ({}:{})", f.name, pf.src.rel_path, f.line)],
                    ));
                    continue;
                }
                if cands
                    .iter()
                    .any(|&(cf, cg)| files[cf].fns[cg].params.len() == *arity)
                {
                    continue;
                }
                let mut arities: Vec<usize> = cands
                    .iter()
                    .map(|&(cf, cg)| files[cf].fns[cg].params.len())
                    .collect();
                arities.sort_unstable();
                arities.dedup();
                let found = arities
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join("/");
                let chain = vec![
                    format!("{} ({}:{})", f.name, pf.src.rel_path, f.line),
                    hop(files, cands[0]),
                ];
                out.push(Finding::with_chain(
                    "stale-estimate",
                    &pf.src.rel_path,
                    f.line,
                    format!(
                        "estimate fn `{}` pairs kernel `{kernel}` with {arity} \
                         parameter(s), but `{kernel}` now takes {found}: the \
                         estimate has drifted from its kernel",
                        f.name
                    ),
                    chain,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect();
        let graph = CallGraph::build(&parsed);
        let mut out = Vec::new();
        check_cost_model(&parsed, &graph, &mut out);
        out
    }

    #[test]
    fn stale_estimate_vanished_and_arity_drift() {
        let src = "\
fn kernel(a: u64, b: u64) -> u64 {
    a + b
}
// flcheck: estimates(kernel, 2)
// flcheck: estimates(vanished_kernel, 2)
// flcheck: estimates(kernel, 5)
pub fn kernel_op_estimate() -> u64 {
    3
}
// flcheck: estimates(gone, 1)
// flcheck: allow(stale-estimate)
pub fn gone_op_estimate() -> u64 {
    1
}
";
        let got = run(&[("crates/he/src/m.rs", src)]);
        let stale: Vec<&Finding> = got.iter().filter(|f| f.rule == "stale-estimate").collect();
        // Two, not three: the pairing with `gone` is allowed.
        assert_eq!(stale.len(), 2, "{got:?}");
        assert!(stale.iter().any(|f| f
            .message
            .contains("`vanished_kernel`, which no longer exists")));
        assert!(stale.iter().any(|f| f.message.contains("now takes 2")));
    }

    #[test]
    fn same_file_kernel_wins_over_namesake() {
        let other = "fn kernel(a: u64, b: u64, c: u64) -> u64 { a + b + c }\n";
        let here = "\
fn kernel(a: u64, b: u64) -> u64 { a + b }
// flcheck: estimates(kernel, 2)
pub fn kernel_op_estimate() -> u64 { 3 }
";
        let got = run(&[
            ("crates/he/src/here.rs", here),
            ("crates/he/src/other.rs", other),
        ]);
        assert!(got.iter().all(|f| f.rule != "stale-estimate"), "{got:?}");
        // And the cross-file namesake alone satisfies a pairing when no
        // same-file kernel exists.
        let remote = "\
// flcheck: estimates(kernel, 3)
pub fn kernel_op_estimate() -> u64 { 3 }
";
        let got = run(&[
            ("crates/he/src/here.rs", remote),
            ("crates/he/src/other.rs", other),
        ]);
        assert!(got.iter().all(|f| f.rule != "stale-estimate"), "{got:?}");
    }
}
