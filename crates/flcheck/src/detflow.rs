//! Interprocedural determinism-flow analysis (`nondet-in-result`).
//!
//! The workspace's hardest invariant is that every *result* — rendered
//! reports, ciphertexts, aggregates, bench JSON content — is bit-identical
//! at any thread count. `tests/parallel_determinism.rs` enforces that
//! dynamically; this pass makes it a static gate by connecting
//! **nondeterminism sources** to declared **result sinks** over the
//! workspace call graph.
//!
//! Sources are found syntactically in each fn body:
//!
//! - hash-order iteration: `.iter()` / `.keys()` / `.values()` / `.drain()`
//!   (and friends) on an identifier the file declares as a `HashMap` /
//!   `HashSet` (a `let` binding or a `name: HashMap<..>` type position),
//!   and `for .. in` over such an identifier;
//! - wall-clock reads: `Instant::now()` / `SystemTime::now()`;
//! - thread-identity reads: `current_num_threads()`,
//!   `current_thread_index()`, `available_parallelism()`,
//!   `thread::current()`;
//! - `// flcheck: nondet(description)` markers for sources the token scan
//!   cannot see.
//!
//! Sinks are fns marked `// flcheck: det-sink` (report serialization,
//! ciphertext/aggregate constructors, bench JSON content writers). A fn
//! marked `// flcheck: det-absorb` *measures* nondeterminism without
//! letting it reach result bytes (ScanStats timings, bench wall-clock):
//! its own sources are ignored and it cuts propagation in both
//! directions.
//!
//! The flow model is a graph-level may-analysis: a source in fn `S` is
//! result-affecting when some fn `A` both (transitively) calls `S` — so
//! `S`'s value can flow back up to `A` — and (transitively) reaches a
//! sink — so `A` can pass it in.
//! Equivalently, `S` lies in the forward call closure of the sinks'
//! backward closure, both cut at `det-absorb` nodes. This
//! over-approximates (no per-value data flow: a timing that provably
//! stays local to `A` still flags), which is the safe direction for a
//! determinism gate; `det-absorb` and `allow(nondet-in-result)` are the
//! pressure valves, and the soundness limits are documented in DESIGN §10.

use crate::callgraph::{hop, CallGraph, NodeId};
use crate::lexer::TokKind;
use crate::parse::{FnItem, ParsedFile};
use crate::report::Finding;
use crate::scan::let_name;
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// Hash-collection methods whose visit order depends on the hasher.
const HASH_ITER_METHODS: &[&str] = &[
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
];

/// Deterministic hash-collection methods: a hash identifier followed by
/// one of these in a `for` header is order-independent.
const HASH_SAFE_METHODS: &[&str] = &["contains", "contains_key", "get", "is_empty", "len"];

/// Free calls that read thread identity or pool width.
const THREAD_IDENTITY_CALLS: &[&str] = &[
    "available_parallelism",
    "current_num_threads",
    "current_thread_index",
];

/// Runs the determinism-flow pass.
pub fn check_detflow(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let mut sinks: BTreeSet<NodeId> = BTreeSet::new();
    let mut absorb: BTreeSet<NodeId> = BTreeSet::new();
    for (fi, pf) in files.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            if f.marks.is_det_sink {
                sinks.insert((fi, gi));
            }
            if f.marks.is_det_absorb {
                absorb.insert((fi, gi));
            }
        }
    }
    if sinks.is_empty() {
        return;
    }

    // Ancestors: nodes whose call chains reach a sink without passing
    // through a det-absorb node. Relevant: ancestors plus everything
    // they transitively call — a callee's return value can flow back up
    // into a sink argument — again cut at det-absorb nodes.
    let cut = |n: NodeId| absorb.contains(&n) || files[n.0].fns[n.1].in_test;
    let anc = graph.backward_reach(&sinks, cut);
    let relevant = graph.forward_reach(&anc, cut);

    // Per-file hash-typed identifier registries, built lazily: most files
    // never host a relevant source.
    let mut hashes: Vec<Option<BTreeSet<String>>> = vec![None; files.len()];

    for (fi, pf) in files.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            let n = (fi, gi);
            if f.in_test || absorb.contains(&n) || !relevant.contains(&n) {
                continue;
            }
            let reg = hashes[fi].get_or_insert_with(|| hash_idents(&pf.src));
            let srcs = direct_sources(pf, f, reg);
            if srcs.is_empty() {
                continue;
            }
            let (chain, sink_name) = sink_context(files, graph, n, &anc, &sinks, &absorb);
            for (line, desc) in srcs {
                if pf.src.is_allowed("nondet-in-result", line) {
                    continue;
                }
                out.push(Finding::with_chain(
                    "nondet-in-result",
                    &pf.src.rel_path,
                    line,
                    format!(
                        "{desc} in `{}` may reach result bytes of det-sink `{sink_name}`",
                        f.name
                    ),
                    chain.clone(),
                ));
            }
        }
    }
}

/// Identifiers a file declares with a `HashMap` / `HashSet` type: type
/// ascriptions (`name: HashMap<..>` — struct fields, statics, params,
/// annotated lets) and `let` bindings whose initializer mentions the
/// type (`let m = HashMap::new()`). Name-based and file-wide, so shadowed
/// or same-named identifiers over-approximate — the safe direction.
fn hash_idents(src: &SourceFile) -> BTreeSet<String> {
    let toks = &src.tokens;
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        // Type position: walk left over type-ish tokens to a `:`, then
        // take the identifier before it.
        let mut k = i;
        while k > 0 {
            let p = &toks[k - 1];
            let type_ish = match p.kind {
                TokKind::Ident | TokKind::Lifetime => true,
                TokKind::Op => matches!(p.text.as_str(), "&" | "<" | "::"),
                _ => false,
            };
            if !type_ish {
                break;
            }
            k -= 1;
        }
        if k >= 2 && toks[k - 1].is_op(":") && toks[k - 2].kind == TokKind::Ident {
            out.insert(toks[k - 2].text.clone());
        }
        // Binding position: `let [mut] NAME = .. HashMap ..`.
        if let Some(name) = let_name(toks, i) {
            out.insert(name.to_string());
        }
    }
    out
}

/// Syntactic nondeterminism sources in one fn body, as (line, description)
/// pairs sorted by line. Includes the fn's `nondet(..)` directive markers.
fn direct_sources(pf: &ParsedFile, f: &FnItem, hashes: &BTreeSet<String>) -> Vec<(u32, String)> {
    let toks = &pf.src.tokens;
    let mut out: Vec<(u32, String)> = Vec::new();

    for c in &f.calls {
        if c.is_method && HASH_ITER_METHODS.contains(&c.callee.as_str()) {
            let Some((s, e)) = c.recv else { continue };
            let Some(last) = toks[s..e].iter().rev().find(|t| t.kind == TokKind::Ident) else {
                continue;
            };
            if hashes.contains(&last.text) {
                out.push((
                    c.line,
                    format!("hash-order iteration `.{}()` on `{}`", c.callee, last.text),
                ));
            }
        } else if c.callee == "now" && !c.is_method {
            if c.name_idx >= 2 && toks[c.name_idx - 1].is_op("::") {
                let ty = &toks[c.name_idx - 2];
                if ty.is_ident("Instant") || ty.is_ident("SystemTime") {
                    out.push((c.line, format!("wall-clock read `{}::now()`", ty.text)));
                }
            }
        } else if !c.is_method && THREAD_IDENTITY_CALLS.contains(&c.callee.as_str()) {
            out.push((c.line, format!("thread-identity read `{}()`", c.callee)));
        } else if c.callee == "current"
            && !c.is_method
            && c.name_idx >= 2
            && toks[c.name_idx - 1].is_op("::")
            && toks[c.name_idx - 2].is_ident("thread")
        {
            out.push((
                c.line,
                "thread-identity read `thread::current()`".to_string(),
            ));
        }
    }

    // `for .. in <hash collection> { .. }` headers: a hash identifier
    // iterated bare (not narrowed by a deterministic method call).
    let limit = f.body_end.min(toks.len());
    let mut i = f.body_start;
    while i < limit {
        if let Some(&(_, nend)) = f.nested.iter().find(|&&(ns, ne)| i >= ns && i < ne) {
            i = nend;
            continue;
        }
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Find the `in` keyword at pattern depth 0, then the body `{`.
        let mut depth = 0i32;
        let mut j = i + 1;
        let mut in_idx = None;
        while j < limit {
            match toks[j].kind {
                TokKind::Open => {
                    if toks[j].text == "{" {
                        break; // `impl .. for Ty {` — not a loop
                    }
                    depth += 1;
                }
                TokKind::Close => depth -= 1,
                TokKind::Ident if depth == 0 && toks[j].text == "in" => {
                    in_idx = Some(j);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let Some(in_idx) = in_idx else {
            i = j.max(i + 1);
            continue;
        };
        let mut depth = 0i32;
        let mut k = in_idx + 1;
        while k < limit {
            match toks[k].kind {
                TokKind::Open => {
                    if toks[k].text == "{" && depth == 0 {
                        break;
                    }
                    depth += 1;
                }
                TokKind::Close => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        for m in in_idx + 1..k.min(limit) {
            let t = &toks[m];
            if t.kind != TokKind::Ident || !hashes.contains(&t.text) {
                continue;
            }
            // Narrowed by a method/index (`map.len()`, `map[k]`)? Only a
            // deterministic whitelist keeps it quiet; `map.iter()` in the
            // header is caught by the method rule above.
            let next = toks.get(m + 1);
            if next.is_some_and(|t| t.text == "[") {
                continue;
            }
            if next.is_some_and(|t| t.is_op("."))
                && toks
                    .get(m + 2)
                    .is_some_and(|t| HASH_SAFE_METHODS.contains(&t.text.as_str()))
            {
                continue;
            }
            if next.is_some_and(|t| t.is_op(".")) {
                // Another method on the hash: the method rule decides.
                continue;
            }
            out.push((
                toks[in_idx].line,
                format!("`for` over hash collection `{}`", t.text),
            ));
            break;
        }
        i = k.max(i + 1);
    }

    for d in &f.marks.nondets {
        out.push((f.line, format!("declared nondet source ({d})")));
    }

    out.sort();
    out.dedup();
    out
}

/// Explains how node `n` connects to a sink: the call chain (as hops) and
/// the sink's fn name. An ancestor's chain walks `n -> .. -> sink`; a
/// pure callee's chain walks its nearest sink-feeding caller down to `n`,
/// then ends at that caller's sink.
fn sink_context(
    files: &[ParsedFile],
    graph: &CallGraph,
    n: NodeId,
    anc: &BTreeSet<NodeId>,
    sinks: &BTreeSet<NodeId>,
    absorb: &BTreeSet<NodeId>,
) -> (Vec<String>, String) {
    let name_of = |m: NodeId| files[m.0].fns[m.1].name.clone();
    let cut = |m: NodeId| absorb.contains(&m);
    // The sink a node feeds: the first one a walk from it discovers.
    let sink_path = |from: NodeId| {
        let tree = graph.bfs(&[from], cut);
        let sink = tree.order.iter().copied().find(|m| sinks.contains(m))?;
        Some(tree.path_from(sink))
    };
    if anc.contains(&n) {
        if let Some(path) = sink_path(n) {
            let sink = path[path.len() - 1];
            return (path.iter().map(|&m| hop(files, m)).collect(), name_of(sink));
        }
    } else {
        // Multi-source walk from every ancestor down to `n`.
        let seeds: Vec<NodeId> = anc.iter().copied().collect();
        let tree = graph.bfs(&seeds, cut);
        if tree.order.contains(&n) {
            let path = tree.path_from(n);
            let mut chain: Vec<String> = path.iter().map(|&m| hop(files, m)).collect();
            let sink_name = match sink_path(path[0]) {
                Some(spath) => {
                    let sink = spath[spath.len() - 1];
                    chain.push(hop(files, sink));
                    name_of(sink)
                }
                None => "?".to_string(),
            };
            return (chain, sink_name);
        }
    }
    (vec![hop(files, n)], "?".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect();
        let graph = CallGraph::build(&parsed);
        let mut out = Vec::new();
        check_detflow(&parsed, &graph, &mut out);
        out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
        out
    }

    #[test]
    fn hash_iteration_feeding_a_sink_is_flagged_with_chain() {
        let src = "\
use std::collections::HashMap;
fn summarize(m: &HashMap<u32, u64>) -> u64 {
    m.values().sum()
}
// flcheck: det-sink
fn render(total: u64) -> String { format!(\"{total}\") }
pub fn report(m: &HashMap<u32, u64>) -> String {
    render(summarize(m))
}
";
        let got = run(&[("crates/core/src/x.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        let f = &got[0];
        assert_eq!((f.rule.as_str(), f.line), ("nondet-in-result", 3));
        assert!(
            f.message
                .contains("hash-order iteration `.values()` on `m` in `summarize`"),
            "{}",
            f.message
        );
        assert!(f.message.contains("det-sink `render`"), "{}", f.message);
        // `summarize` is a pure callee of the ancestor `report`: the chain
        // walks report -> summarize, then ends at report's sink.
        assert_eq!(
            f.chain,
            vec![
                "report (crates/core/src/x.rs:7)",
                "summarize (crates/core/src/x.rs:2)",
                "render (crates/core/src/x.rs:6)",
            ]
        );
    }

    #[test]
    fn ancestor_sources_chain_straight_to_the_sink() {
        let src = "\
// flcheck: det-sink
fn emit(x: u64) {}
pub fn drive(m: &std::collections::HashMap<u32, u64>) {
    for (k, v) in m {
        emit(k as u64 + v);
    }
}
";
        let got = run(&[("crates/fl/src/x.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 4);
        assert!(
            got[0].message.contains("`for` over hash collection `m`"),
            "{}",
            got[0].message
        );
        assert_eq!(
            got[0].chain,
            vec![
                "drive (crates/fl/src/x.rs:3)",
                "emit (crates/fl/src/x.rs:2)"
            ]
        );
    }

    #[test]
    fn time_and_thread_reads_are_sources() {
        let src = "\
// flcheck: det-sink
fn write_json(s: &str) {}
pub fn bad_bench() {
    let t0 = Instant::now();
    let width = rayon::current_num_threads();
    write_json(&format!(\"{width} {:?}\", t0.elapsed()));
}
";
        let got = run(&[("crates/bench/src/x.rs", src)]);
        let lines: Vec<(u32, bool)> = got
            .iter()
            .map(|f| (f.line, f.message.contains("wall-clock")))
            .collect();
        assert_eq!(lines, vec![(4, true), (5, false)], "{got:?}");
        assert!(got[1].message.contains("`current_num_threads()`"));
    }

    #[test]
    fn absorb_cuts_both_directions_and_ignores_own_sources() {
        let src = "\
// flcheck: det-sink
fn sink(x: u64) {}
// flcheck: det-absorb
fn stopwatch() -> u64 {
    let t = Instant::now();
    tick(t)
}
fn tick(t: u64) -> u64 { t }
pub fn run_all() {
    stopwatch();
    sink(3);
}
";
        // stopwatch's Instant is absorbed; tick is only reachable through
        // the absorb node, so it is not relevant either.
        let got = run(&[("crates/core/src/x.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn nondet_directive_and_allow_interact() {
        let src = "\
// flcheck: det-sink
fn sink(x: u64) {}
// flcheck: nondet(reads the CPU cycle counter)
fn rdtsc_ish() -> u64 { 0 }
fn pardoned() -> u64 {
    // flcheck: allow(nondet-in-result)
    let t = Instant::now();
    0
}
pub fn api() { sink(rdtsc_ish() + pardoned()); }
";
        let got = run(&[("crates/core/src/x.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 4);
        assert!(
            got[0]
                .message
                .contains("declared nondet source (reads the CPU cycle counter)"),
            "{}",
            got[0].message
        );
    }

    #[test]
    fn sources_without_any_sink_path_stay_quiet() {
        let src = "\
fn loose(m: &std::collections::HashMap<u32, u64>) -> u64 {
    m.values().sum()
}
pub fn timing_only() {
    let t = Instant::now();
    loose(&Default::default());
}
";
        // No det-sink anywhere: the pass has nothing to protect.
        let got = run(&[("crates/core/src/x.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn deterministic_probes_on_hash_collections_are_fine() {
        let src = "\
// flcheck: det-sink
fn sink(x: u64) {}
pub fn api(m: &std::collections::HashMap<u32, u64>) {
    let mut acc = 0;
    for i in 0..m.len() {
        acc += i as u64;
    }
    if m.contains_key(&7) {
        acc += m.get(&7).copied().unwrap_or(0);
    }
    sink(acc);
}
";
        let got = run(&[("crates/core/src/x.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn btreemap_iteration_is_not_a_source() {
        let src = "\
// flcheck: det-sink
fn sink(x: u64) {}
pub fn api(m: &std::collections::BTreeMap<u32, u64>) {
    let mut acc = 0;
    for (_, v) in m.iter() {
        acc += v;
    }
    sink(acc);
}
";
        let got = run(&[("crates/core/src/x.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn hash_syntax_in_raw_strings_and_comments_is_inert() {
        let src = "\
// flcheck: det-sink
fn sink(s: &str) {}
/* prose: /* let m: HashMap<u32, u64> = ...; m.iter() */ still prose */
pub fn api() {
    let doc = r#\"let m: HashMap<u32, u64>; for (k, v) in m { m.values() }\"#;
    // let t = Instant::now(); m.keys();
    sink(doc);
}
";
        let got = run(&[("crates/core/src/x.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn test_fns_are_out_of_scope() {
        let src = "\
// flcheck: det-sink
fn sink(x: u64) {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let t = Instant::now();
        super::sink(1);
    }
}
";
        let got = run(&[("crates/core/src/x.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }
}
