//! Workspace call graph and the walks every interprocedural pass shares.
//!
//! [`CallGraph::build`] resolves every [`crate::parse::CallSite`] against
//! the `fn` items of all parsed files by name: method calls (`x.f(..)`)
//! resolve to `self`-taking fns, free calls to the rest (falling back to
//! methods for UFCS `Type::method(x)` paths), same-file candidates win
//! over cross-file ones, and non-test candidates win over test helpers.
//! Two name collisions are refused outright: a `std::` / `core::` /
//! `alloc::` path call never resolves, and a call inside a shim resolves
//! only within that shim (the rayon shim's `Option::take` is not
//! `ObfuscatorPool::take`). Unresolvable names (std/core, shims outside
//! the scan set) simply have no edge — the graph is a *may-call*
//! over-approximation restricted to first-party code.
//!
//! Walking is written once: [`CallGraph::bfs`] is the only breadth-first
//! search (deterministic — seeds in slice order, edges in call-site
//! order — so every reported chain is a reproducible shortest path), and
//! [`CallGraph::forward_reach`] / [`CallGraph::backward_reach`] /
//! [`CallGraph::path_to`] are views of its result. Passes differ only in
//! their seeds and in which nodes they refuse to enter.

use crate::parse::{CallSite, ParsedFile};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Node id: (file index, fn index) into the parsed-file slice.
pub type NodeId = (usize, usize);

/// One resolved call edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// Index into the caller's `FnItem::calls`.
    pub call: usize,
    /// Resolved callee.
    pub to: NodeId,
}

/// Workspace call graph over a slice of [`ParsedFile`]s.
#[derive(Debug)]
pub struct CallGraph {
    /// `edges[file][fn]` = resolved out-edges, in call-site order (one
    /// edge per candidate when a name is ambiguous).
    pub edges: Vec<Vec<Vec<Edge>>>,
    /// `callers[file][fn]` = the nodes with an edge into this one.
    callers: Vec<Vec<Vec<NodeId>>>,
}

/// Which way a walk follows call edges.
#[derive(Clone, Copy)]
enum Dir {
    Callees,
    Callers,
}

/// Result of a breadth-first walk: discovery order (seeds first) and
/// the predecessor of every non-seed node reached.
pub(crate) struct Bfs {
    /// Every node reached, in discovery order.
    pub(crate) order: Vec<NodeId>,
    pred: BTreeMap<NodeId, NodeId>,
}

impl Bfs {
    /// The walked path `seed -> .. -> n`, both endpoints included.
    pub(crate) fn path_from(&self, n: NodeId) -> Vec<NodeId> {
        let mut path = vec![n];
        let mut at = n;
        while let Some(&p) = self.pred.get(&at) {
            path.push(p);
            at = p;
        }
        path.reverse();
        path
    }
}

impl CallGraph {
    /// Builds the graph by name resolution over all fn items.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut by_name: HashMap<&str, Vec<NodeId>> = HashMap::new();
        for (fi, pf) in files.iter().enumerate() {
            for (gi, f) in pf.fns.iter().enumerate() {
                by_name.entry(f.name.as_str()).or_default().push((fi, gi));
            }
        }
        let mut edges = Vec::with_capacity(files.len());
        let mut callers: Vec<Vec<Vec<NodeId>>> = files
            .iter()
            .map(|pf| vec![Vec::new(); pf.fns.len()])
            .collect();
        for (fi, pf) in files.iter().enumerate() {
            let mut file_edges = Vec::with_capacity(pf.fns.len());
            for (gi, f) in pf.fns.iter().enumerate() {
                let mut fn_edges = Vec::new();
                for (ci, call) in f.calls.iter().enumerate() {
                    for to in resolve(files, &by_name, fi, call) {
                        fn_edges.push(Edge { call: ci, to });
                        callers[to.0][to.1].push((fi, gi));
                    }
                }
                file_edges.push(fn_edges);
            }
            edges.push(file_edges);
        }
        CallGraph { edges, callers }
    }

    /// Out-edges of one node.
    pub fn out(&self, n: NodeId) -> &[Edge] {
        &self.edges[n.0][n.1]
    }

    /// The one breadth-first search. Never enters a node `skip` rejects;
    /// seeds are taken as given.
    fn walk(&self, dir: Dir, seeds: &[NodeId], skip: impl Fn(NodeId) -> bool) -> Bfs {
        let mut seen: BTreeSet<NodeId> = seeds.iter().copied().collect();
        let mut order: Vec<NodeId> = seeds.to_vec();
        let mut pred: BTreeMap<NodeId, NodeId> = BTreeMap::new();
        let mut queue: VecDeque<NodeId> = seeds.iter().copied().collect();
        while let Some(n) = queue.pop_front() {
            let mut visit = |to: NodeId| {
                if !skip(to) && seen.insert(to) {
                    pred.insert(to, n);
                    order.push(to);
                    queue.push_back(to);
                }
            };
            match dir {
                Dir::Callees => self.out(n).iter().for_each(|e| visit(e.to)),
                Dir::Callers => self.callers[n.0][n.1].iter().for_each(|&c| visit(c)),
            }
        }
        Bfs { order, pred }
    }

    /// Breadth-first search down call edges from `seeds`, with the
    /// predecessor tree.
    pub(crate) fn bfs(&self, seeds: &[NodeId], skip: impl Fn(NodeId) -> bool) -> Bfs {
        self.walk(Dir::Callees, seeds, skip)
    }

    /// Forward closure: the seeds plus everything they transitively
    /// call, never entering a node `skip` rejects.
    pub(crate) fn forward_reach(
        &self,
        seeds: &BTreeSet<NodeId>,
        skip: impl Fn(NodeId) -> bool,
    ) -> BTreeSet<NodeId> {
        self.closure(Dir::Callees, seeds, skip)
    }

    /// Backward closure: the seeds plus every node whose call chain can
    /// reach one, never entering a node `skip` rejects.
    pub(crate) fn backward_reach(
        &self,
        seeds: &BTreeSet<NodeId>,
        skip: impl Fn(NodeId) -> bool,
    ) -> BTreeSet<NodeId> {
        self.closure(Dir::Callers, seeds, skip)
    }

    fn closure(
        &self,
        dir: Dir,
        seeds: &BTreeSet<NodeId>,
        skip: impl Fn(NodeId) -> bool,
    ) -> BTreeSet<NodeId> {
        let seeds: Vec<NodeId> = seeds.iter().copied().collect();
        self.walk(dir, &seeds, skip).order.into_iter().collect()
    }

    /// Shortest call path from `start` to the first node (in discovery
    /// order) satisfying `target`, both endpoints included.
    pub(crate) fn path_to(
        &self,
        start: NodeId,
        target: impl Fn(NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        let tree = self.bfs(&[start], |_| false);
        let hit = tree.order.iter().copied().find(|&n| target(n))?;
        Some(tree.path_from(hit))
    }
}

/// The shim a workspace-relative path belongs to: `crates/shims/rayon/..`
/// is `rayon`.
fn shim_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/shims/")?.split('/').next()
}

/// Resolves one call by name. Returns every candidate that survives the
/// filters, in (file, fn) order. A `std::` path never names first-party
/// code, and a call inside a shim resolves only within that shim: no shim
/// depends on a first-party crate.
fn resolve(
    files: &[ParsedFile],
    by_name: &HashMap<&str, Vec<NodeId>>,
    caller_file: usize,
    call: &CallSite,
) -> Vec<NodeId> {
    let shim = shim_of(&files[caller_file].src.rel_path);
    let all: Vec<NodeId> = match by_name.get(call.callee.as_str()) {
        Some(all) if !call.in_std => all
            .iter()
            .copied()
            .filter(|&(fi, _)| shim.is_none() || shim_of(&files[fi].src.rel_path) == shim)
            .collect(),
        _ => return Vec::new(),
    };
    let mut cands: Vec<NodeId> = all
        .iter()
        .copied()
        .filter(|&(fi, gi)| files[fi].fns[gi].is_method == call.is_method)
        .collect();
    if cands.is_empty() && !call.is_method {
        // `Type::method(x)` — a free-looking path call into a method.
        cands = all;
    }
    if cands.iter().any(|&(fi, _)| fi == caller_file) {
        cands.retain(|&(fi, _)| fi == caller_file);
    }
    if cands.iter().any(|&(fi, gi)| !files[fi].fns[gi].in_test) {
        cands.retain(|&(fi, gi)| !files[fi].fns[gi].in_test);
    }
    cands
}

/// Formats one call-chain hop.
pub(crate) fn hop(files: &[ParsedFile], n: NodeId) -> String {
    let f = &files[n.0].fns[n.1];
    format!("{} ({}:{})", f.name, files[n.0].src.rel_path, f.line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Vec<ParsedFile> {
        files.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect()
    }

    fn named_edges(files: &[ParsedFile], g: &CallGraph) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (fi, pf) in files.iter().enumerate() {
            for (gi, f) in pf.fns.iter().enumerate() {
                for e in g.out((fi, gi)) {
                    out.push((f.name.clone(), files[e.to.0].fns[e.to.1].name.clone()));
                }
            }
        }
        out
    }

    #[test]
    fn cross_module_and_method_edges_are_exact() {
        let files = ws(&[
            (
                "crates/core/src/a.rs",
                "pub fn entry(s: &State) { s.step(); helper(1); }\nfn helper(x: u8) {}\n",
            ),
            (
                "crates/core/src/b.rs",
                "impl State { pub fn step(&self) { tick(); } }\nfn tick() {}\nfn helper(y: u8) {}\n",
            ),
        ]);
        let g = CallGraph::build(&files);
        // `helper` exists in both files; the same-file candidate wins, so
        // exactly one `entry -> helper` edge lands in a.rs. `s.step()` is
        // a method call and resolves cross-module to the only self-taking
        // `step`.
        assert_eq!(
            named_edges(&files, &g),
            vec![
                ("entry".to_string(), "step".to_string()),
                ("entry".to_string(), "helper".to_string()),
                ("step".to_string(), "tick".to_string()),
            ]
        );
        let entry_edges = g.out((0, 0));
        assert_eq!(entry_edges[1].to, (0, 1), "same-file helper preferred");
    }

    #[test]
    fn free_calls_do_not_resolve_to_methods() {
        let files = ws(&[(
            "crates/core/src/a.rs",
            "impl T { fn norm(&self) {} }\nfn norm(x: u8) {}\nfn f(x: u8) { norm(x); }\n",
        )]);
        let g = CallGraph::build(&files);
        let edges = named_edges(&files, &g);
        assert_eq!(edges, vec![("f".to_string(), "norm".to_string())]);
        // Resolved to the free fn (index 1), not the method (index 0).
        assert_eq!(g.out((0, 2))[0].to, (0, 1));
    }

    #[test]
    fn shim_calls_stay_in_their_shim_and_std_paths_never_resolve() {
        let files = ws(&[
            (
                "crates/he/src/pool.rs",
                "impl Pool { pub fn take(&self) {} }\nfn take(x: u8) {}\n",
            ),
            (
                "crates/shims/rayon/src/pool.rs",
                "fn worker(s: &S) { s.slot.take(); }\n",
            ),
            (
                "crates/fl/src/a.rs",
                "fn f(p: &Pool, v: &mut u8) { p.take(); std::mem::take(v); }\n",
            ),
        ]);
        let g = CallGraph::build(&files);
        // The shim's `Option::take` and the std path find nothing; the
        // first-party method call still resolves.
        assert_eq!(
            named_edges(&files, &g),
            vec![("f".to_string(), "take".to_string())]
        );
        assert_eq!(g.out((2, 0))[0].to, (0, 0));
    }

    #[test]
    fn recursive_cycle_terminates_and_reports_reach() {
        let files = ws(&[(
            "crates/core/src/cycle.rs",
            "\
pub fn api(n: u32) {
    ping(n);
}
fn ping(n: u32) {
    pong(n);
}
fn pong(n: u32) {
    ping(n);
    boom();
}
fn boom() {
    panic!(\"boom\");
}
fn idle() {}
",
        )]);
        let g = CallGraph::build(&files);
        // Exact edges, including the ping <-> pong cycle.
        assert_eq!(
            named_edges(&files, &g),
            vec![
                ("api".to_string(), "ping".to_string()),
                ("ping".to_string(), "pong".to_string()),
                ("pong".to_string(), "ping".to_string()),
                ("pong".to_string(), "boom".to_string()),
            ]
        );
        // Both closures terminate on the cycle and reach exactly the
        // connected fns.
        let fwd = g.forward_reach(&BTreeSet::from([(0, 0)]), |_| false);
        assert_eq!(fwd, BTreeSet::from([(0, 0), (0, 1), (0, 2), (0, 3)]));
        let back = g.backward_reach(&BTreeSet::from([(0, 3)]), |_| false);
        assert_eq!(back, fwd, "every fn but `idle` reaches `boom`");
        // The shortest chain walks through the cycle once.
        let path = g
            .path_to((0, 0), |n| n == (0, 3))
            .expect("boom is reachable");
        let chain: Vec<String> = path.iter().map(|&n| hop(&files, n)).collect();
        assert_eq!(
            chain,
            vec![
                "api (crates/core/src/cycle.rs:1)",
                "ping (crates/core/src/cycle.rs:4)",
                "pong (crates/core/src/cycle.rs:7)",
                "boom (crates/core/src/cycle.rs:11)",
            ]
        );
        assert!(g.path_to((0, 4), |n| n == (0, 3)).is_none());
    }
}
