//! Cost-model conformance checking.
//!
//! The simulated-time results (Tables III–VII) are only as good as the
//! pairing between the kernels that do the work and the accounting that
//! charges for it. Three directives make that pairing checkable:
//!
//! - `// flcheck: mac-prim` — the fn performs Montgomery MACs (the
//!   workspace's unit of HE work; the CIOS kernels in `mpint::cios`).
//! - `// flcheck: charge-sink` — the fn records simulated-time cost (the
//!   `*_op_estimate` fns, `fl`'s `charge*` accessors, gpu-sim's launch
//!   accounting).
//! - `// flcheck: estimates(kernel, arity)` — the fn is the op-count
//!   estimate paired with `kernel`, which must still exist with that many
//!   parameters.
//!
//! Two rules close those facts over the workspace call graph:
//!
//! - **uncharged-work** — a public fn in the cost perimeter (`he`,
//!   `gpu-sim`, `core`) whose call chain reaches a MAC primitive but
//!   never flows into a charge sink. Key generation and the bench bins
//!   stay outside the perimeter: keygen is a one-time setup cost the
//!   paper does not time, and the bench bins *are* the measurement.
//! - **stale-estimate** — an `estimates(kernel, arity)` pairing whose
//!   kernel no longer exists or changed arity, i.e. an estimate drifting
//!   from the code it models. Same-file kernels win over cross-file
//!   namesakes, mirroring call-graph resolution.

use crate::callgraph::{hop, CallGraph, NodeId};
use crate::parse::ParsedFile;
use crate::report::Finding;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Crates whose public surface must charge for the MAC work it triggers.
const COST_PERIMETER: &[&str] = &["he", "gpu-sim", "core"];

/// Estimate/counter name suffixes: these fns *model* work (and are the
/// pairing targets of charge sinks), they do not perform it.
pub(crate) fn is_accounting_name(name: &str) -> bool {
    name.ends_with("_estimate") || name.ends_with("_mac_count") || name.ends_with("_ops")
}

/// Runs both cost-model rules.
pub fn check_cost_model(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let mut mac_seed: BTreeSet<NodeId> = BTreeSet::new();
    let mut charge_seed: BTreeSet<NodeId> = BTreeSet::new();
    // Per-file kernel names claimed by an estimates(..) directive in that
    // file: exempt from uncharged-work (their cost is modeled).
    let mut estimated: BTreeMap<usize, BTreeSet<&str>> = BTreeMap::new();
    for (fi, pf) in files.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            if f.marks.is_mac_prim {
                mac_seed.insert((fi, gi));
            }
            if f.marks.is_charge_sink {
                charge_seed.insert((fi, gi));
            }
            for (kernel, _) in &f.marks.estimates {
                estimated.entry(fi).or_default().insert(kernel.as_str());
            }
        }
    }
    let reaches_mac = graph.backward_reach(&mac_seed, |_| false);
    let reaches_charge = graph.backward_reach(&charge_seed, |_| false);

    check_uncharged(files, graph, &reaches_mac, &reaches_charge, &estimated, out);
    check_stale(files, out);
}

fn check_uncharged(
    files: &[ParsedFile],
    graph: &CallGraph,
    reaches_mac: &BTreeSet<NodeId>,
    reaches_charge: &BTreeSet<NodeId>,
    estimated: &BTreeMap<usize, BTreeSet<&str>>,
    out: &mut Vec<Finding>,
) {
    for (fi, pf) in files.iter().enumerate() {
        if !COST_PERIMETER.contains(&crate::lockgraph::crate_of(&pf.src.rel_path)) {
            continue;
        }
        for (gi, f) in pf.fns.iter().enumerate() {
            let n = (fi, gi);
            if !f.is_pub
                || f.in_test
                || f.marks.is_mac_prim
                || f.marks.is_charge_sink
                || is_accounting_name(&f.name)
                || estimated
                    .get(&fi)
                    .is_some_and(|k| k.contains(f.name.as_str()))
                || !reaches_mac.contains(&n)
                || reaches_charge.contains(&n)
                || pf.src.is_allowed("uncharged-work", f.line)
            {
                continue;
            }
            let Some(path) = graph.path_to(n, |m| files[m.0].fns[m.1].marks.is_mac_prim) else {
                continue;
            };
            let prim = &files[path[path.len() - 1].0].fns[path[path.len() - 1].1];
            let chain: Vec<String> = path.iter().map(|&m| hop(files, m)).collect();
            out.push(Finding::with_chain(
                "uncharged-work",
                &pf.src.rel_path,
                f.line,
                format!(
                    "public fn `{}` performs MAC work (reaches `{}`) but its call \
                     chain never flows into a charge sink: pair it with an \
                     estimates(..) directive or charge the cost",
                    f.name, prim.name
                ),
                chain,
            ));
        }
    }
}

fn check_stale(files: &[ParsedFile], out: &mut Vec<Finding>) {
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

    const BASE: &str = "\
// flcheck: mac-prim
fn mont_mul(a: u64, b: u64) -> u64 {
    a.wrapping_mul(b)
}
// flcheck: charge-sink
fn charge(ops: u64) -> u64 {
    ops
}
fn kernel(a: u64, b: u64) -> u64 {
    mont_mul(a, b)
}
";

    #[test]
    fn uncharged_public_entry_is_flagged_with_chain() {
        let src = format!(
            "{BASE}\
pub fn charged_entry(a: u64, b: u64) -> u64 {{
    charge(kernel(a, b))
}}
pub fn uncharged_entry(a: u64, b: u64) -> u64 {{
    kernel(a, b)
}}
"
        );
        let got = run(&[("crates/he/src/m.rs", &src)]);
        let hits: Vec<&Finding> = got.iter().filter(|f| f.rule == "uncharged-work").collect();
        assert_eq!(hits.len(), 1, "{got:?}");
        assert_eq!(hits[0].line, 15, "flagged at the uncharged fn item");
        assert_eq!(
            hits[0].chain,
            vec![
                "uncharged_entry (crates/he/src/m.rs:15)",
                "kernel (crates/he/src/m.rs:9)",
                "mont_mul (crates/he/src/m.rs:2)",
            ]
        );
    }

    #[test]
    fn estimates_pairing_exempts_the_kernel() {
        let src = format!(
            "{BASE}\
pub fn encrypt(a: u64, b: u64) -> u64 {{
    kernel(a, b)
}}
// flcheck: estimates(encrypt, 2)
pub fn encrypt_op_estimate() -> u64 {{
    17
}}
"
        );
        let got = run(&[("crates/he/src/m.rs", &src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn outside_the_perimeter_is_silent() {
        let src = format!("{BASE}pub fn bench(a: u64) -> u64 {{ kernel(a, a) }}\n");
        let got = run(&[("crates/bench/src/m.rs", &src)]);
        assert!(got.iter().all(|f| f.rule != "uncharged-work"), "{got:?}");
        // fl is also outside: its accelerator surface charges internally
        // and is gated by the charge-sink marks it carries.
        let got = run(&[("crates/fl/src/m.rs", &src)]);
        assert!(got.iter().all(|f| f.rule != "uncharged-work"), "{got:?}");
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
";
        let got = run(&[("crates/he/src/m.rs", src)]);
        let stale: Vec<&Finding> = got.iter().filter(|f| f.rule == "stale-estimate").collect();
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

    #[test]
    fn allows_suppress_both_rules() {
        let src = format!(
            "{BASE}\
// flcheck: allow(uncharged-work) — exercised one-shot at setup, untimed
pub fn setup(a: u64) -> u64 {{
    kernel(a, a)
}}
// flcheck: estimates(gone, 1)
// flcheck: allow(stale-estimate)
pub fn gone_op_estimate() -> u64 {{
    1
}}
"
        );
        let got = run(&[("crates/he/src/m.rs", &src)]);
        assert!(got.is_empty(), "{got:?}");
    }
}
