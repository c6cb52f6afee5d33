//! Integer-width conformance: lossy narrowing casts on the scale-out
//! arithmetic paths.
//!
//! The codec's pack/unpack geometry (limb, slot, and arity counts), the
//! op-cost estimators, and `fl::net`'s byte accounting all mix `usize`
//! loop math with narrower wire/geometry types. A silent `as u32` of a
//! value that outgrew 32 bits corrupts results or charging without any
//! panic — exactly the failure FedBit-style bit-interleaved packing and
//! HAFLO-style cost accounting multiply as client counts scale.
//!
//! The item parser records every narrowing `as`-cast
//! ([`crate::parse::CastSite`]; the width lattice is
//! `u8 < u16 < u32 < u64 ≈ usize < u128`, so only casts *down* the
//! lattice are recorded). This pass flags a cast as **lossy-narrow**
//! when its value can reach a width-sensitive sink:
//!
//! - any non-test fn in `crates/codec/src` (pack/unpack geometry),
//! - any op-cost estimator (`*_estimate` / `*_mac_count` / `*_ops`),
//! - any non-test fn in `crates/fl/src/net.rs` (byte accounting).
//!
//! Reachability is judged two ways: the cast's own fn is in the sinks'
//! *forward closure* (sinks plus everything they call — a value computed
//! there feeds sink arithmetic), or the cast sits directly inside an
//! argument of a call that resolves into that set (the value flows
//! inward). Exemptions (precision valves):
//!
//! - pure-literal sources (`7 as u8`: the value is statically in range),
//! - `// flcheck: widen-ok(names)` — a cast whose source expression
//!   mentions a named identifier is value-range safe,
//! - `// flcheck: narrow(description)` — the fn performs intentional,
//!   justified narrowing (masked limb splits etc.),
//! - `// flcheck: allow(lossy-narrow)` line suppressions.

use crate::callgraph::{hop, CallGraph, NodeId};
use crate::lexer::TokKind;
use crate::parse::{CastSite, ParsedFile};
use crate::report::Finding;
use std::collections::BTreeSet;

/// Estimate/counter name suffixes: these fns *model* work — op-cost
/// accounting — they do not perform it.
fn is_accounting_name(name: &str) -> bool {
    name.ends_with("_estimate") || name.ends_with("_mac_count") || name.ends_with("_ops")
}

/// True when the fn at `n` is a width-sensitive sink.
fn is_sink(files: &[ParsedFile], n: NodeId) -> bool {
    let pf = &files[n.0];
    let f = &pf.fns[n.1];
    if f.in_test {
        return false;
    }
    pf.src.rel_path.starts_with("crates/codec/src/")
        || pf.src.rel_path == "crates/fl/src/net.rs"
        || is_accounting_name(&f.name)
}

/// What kind of sink a node is, for messages.
fn sink_desc(files: &[ParsedFile], n: NodeId) -> &'static str {
    let pf = &files[n.0];
    if pf.src.rel_path.starts_with("crates/codec/src/") {
        "codec pack/unpack geometry"
    } else if pf.src.rel_path == "crates/fl/src/net.rs" {
        "fl::net byte accounting"
    } else {
        "op-cost accounting"
    }
}

/// Renders a cast's source expression for messages (token texts joined,
/// truncated).
fn src_text(pf: &ParsedFile, cast: &CastSite) -> String {
    let toks = &pf.src.tokens[cast.src_start..cast.as_idx.min(pf.src.tokens.len())];
    let mut parts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    if parts.len() > 8 {
        parts.truncate(8);
        parts.push("..");
    }
    parts.join(" ")
}

/// True when the cast's source is a pure literal (no identifiers): the
/// value is statically known to fit or deliberately constant.
fn pure_literal(pf: &ParsedFile, cast: &CastSite) -> bool {
    let toks = &pf.src.tokens[cast.src_start..cast.as_idx.min(pf.src.tokens.len())];
    !toks.is_empty() && toks.iter().all(|t| t.kind != TokKind::Ident)
}

/// True when the cast's source expression mentions an identifier named
/// by the fn's `widen-ok(..)` directive.
fn widen_ok(pf: &ParsedFile, widen: &[String], cast: &CastSite) -> bool {
    pf.src.tokens[cast.src_start..cast.as_idx.min(pf.src.tokens.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && widen.iter().any(|w| *w == t.text))
}

/// Runs the `lossy-narrow` rule.
pub fn check_width(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let mut sinks: BTreeSet<NodeId> = BTreeSet::new();
    for (fi, pf) in files.iter().enumerate() {
        for gi in 0..pf.fns.len() {
            if is_sink(files, (fi, gi)) {
                sinks.insert((fi, gi));
            }
        }
    }
    // Two flow directions: a cast *inside* sink-side computation (the
    // sinks' forward closure over callees) is lossy where it stands; a
    // cast passed as an argument flows toward the sinks through any
    // callee that can still reach one (the sinks' backward reach).
    let relevant = graph.forward_reach(&sinks, |m| files[m.0].fns[m.1].in_test);
    let toward = graph.backward_reach(&sinks, |_| false);

    for (fi, pf) in files.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            if f.in_test || f.casts.is_empty() || !f.marks.narrows.is_empty() {
                continue;
            }
            let n = (fi, gi);
            for cast in &f.casts {
                if pf.src.is_allowed("lossy-narrow", cast.line)
                    || pure_literal(pf, cast)
                    || widen_ok(pf, &f.marks.widen_ok, cast)
                {
                    continue;
                }
                // (a) The cast's fn computes values inside the sink set.
                if relevant.contains(&n) {
                    let Some(path) = graph.path_to(n, |m| sinks.contains(&m)) else {
                        continue;
                    };
                    let sink = path[path.len() - 1];
                    let mut chain = vec![format!(
                        "cast `{} as {}` ({}:{})",
                        src_text(pf, cast),
                        cast.target,
                        pf.src.rel_path,
                        cast.line
                    )];
                    chain.extend(path.iter().map(|&m| hop(files, m)));
                    out.push(Finding::with_chain(
                        "lossy-narrow",
                        &pf.src.rel_path,
                        cast.line,
                        format!(
                            "lossy narrowing cast `as {}` of `{}` in `{}` on a path \
                             reaching {} (`{}`): justify with widen-ok(..)/narrow(..) \
                             or widen the type",
                            cast.target,
                            src_text(pf, cast),
                            f.name,
                            sink_desc(files, sink),
                            files[sink.0].fns[sink.1].name
                        ),
                        chain,
                    ));
                    continue;
                }
                // (b) The cast flows directly into an argument of a call
                // that resolves into the sink set.
                let mut flagged = false;
                for (ci, cs) in f.calls.iter().enumerate() {
                    if flagged {
                        break;
                    }
                    let inside_arg = cs
                        .args
                        .iter()
                        .any(|&(s, e)| s <= cast.src_start && cast.as_idx < e);
                    if !inside_arg {
                        continue;
                    }
                    for e in graph.out(n).iter().filter(|e| e.call == ci) {
                        if !toward.contains(&e.to) {
                            continue;
                        }
                        let Some(path) = graph.path_to(e.to, |m| sinks.contains(&m)) else {
                            continue;
                        };
                        let sink = path[path.len() - 1];
                        let mut chain = vec![
                            format!(
                                "cast `{} as {}` ({}:{})",
                                src_text(pf, cast),
                                cast.target,
                                pf.src.rel_path,
                                cast.line
                            ),
                            hop(files, n),
                        ];
                        chain.extend(path.iter().map(|&m| hop(files, m)));
                        out.push(Finding::with_chain(
                            "lossy-narrow",
                            &pf.src.rel_path,
                            cast.line,
                            format!(
                                "lossy narrowing cast `as {}` of `{}` in `{}` passed into \
                                 `{}`, reaching {} (`{}`): justify with \
                                 widen-ok(..)/narrow(..) or widen the type",
                                cast.target,
                                src_text(pf, cast),
                                f.name,
                                cs.callee,
                                sink_desc(files, sink),
                                files[sink.0].fns[sink.1].name
                            ),
                            chain,
                        ));
                        flagged = true;
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| ParsedFile::parse(p, s)).collect();
        let graph = CallGraph::build(&parsed);
        let mut out = Vec::new();
        check_width(&parsed, &graph, &mut out);
        out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
        out
    }

    #[test]
    fn narrowing_cast_in_codec_is_flagged() {
        let src = "\
pub fn pack(values: &[u64], slots: usize) -> u32 {
    let geometry = slots * values.len();
    geometry as u32
}
";
        let got = run(&[("crates/codec/src/batch.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, "lossy-narrow");
        assert_eq!(got[0].line, 3);
        assert!(got[0].message.contains("codec pack/unpack geometry"));
        assert!(
            got[0].chain[0].contains("geometry as u32"),
            "{:?}",
            got[0].chain
        );
    }

    #[test]
    fn widening_casts_are_never_recorded() {
        let src = "pub fn pack(n: u32) -> u64 { n as u64 + n as usize as u64 }\n";
        let got = run(&[("crates/codec/src/batch.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn cast_outside_the_sink_closure_is_clean() {
        let src = "\
pub fn render(count: usize) -> String {
    format!(\"{}\", count as u32)
}
";
        let got = run(&[("crates/fl/src/report.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn cast_feeding_an_estimator_chain_is_flagged() {
        let src = "\
pub fn plan(arity: usize) -> u64 {
    helper(arity as u32)
}
fn helper(arity: u32) -> u64 {
    encrypt_op_estimate(arity)
}
fn encrypt_op_estimate(arity: u32) -> u64 {
    arity as u64 * 17
}
";
        let got = run(&[("crates/he/src/cost.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 2);
        assert!(got[0].message.contains("op-cost accounting"));
        assert!(
            got[0]
                .chain
                .iter()
                .any(|h| h.contains("encrypt_op_estimate")),
            "{:?}",
            got[0].chain
        );
    }

    #[test]
    fn pure_literal_sources_are_exempt() {
        let src = "pub fn pack() -> u8 { (1 + 2) as u8 }\n";
        let got = run(&[("crates/codec/src/batch.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn widen_ok_names_exempt_matching_sources() {
        let src = "\
// flcheck: widen-ok(slot_bits)
pub fn pack(slot_bits: usize, arity: usize) -> u32 {
    let a = slot_bits as u32;
    let b = arity as u32;
    a + b
}
";
        let got = run(&[("crates/codec/src/batch.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].line, 4, "only the arity cast is flagged");
    }

    #[test]
    fn narrow_directive_sanctions_the_whole_fn() {
        let src = "\
// flcheck: narrow(limb split: masked to 32 bits explicitly)
pub fn split(limb: u64) -> u32 {
    (limb & 0xffff_ffff) as u32
}
";
        let got = run(&[("crates/codec/src/batch.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn allow_suppresses_the_line() {
        let src = "\
pub fn pack(n: usize) -> u32 {
    // flcheck: allow(lossy-narrow)
    n as u32
}
";
        let got = run(&[("crates/codec/src/batch.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn test_fns_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let n = 70000usize; assert_eq!(n as u16, 4464); }
}
";
        let got = run(&[("crates/codec/src/batch.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn net_byte_accounting_is_a_sink() {
        let src = "\
pub fn send(bytes: usize) -> u32 {
    bytes as u32
}
";
        let got = run(&[("crates/fl/src/net.rs", src)]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("fl::net byte accounting"));
    }

    #[test]
    fn debug_assert_casts_are_dropped() {
        let src = "\
pub fn pack(n: usize) -> u64 {
    debug_assert!(n as u32 > 0);
    n as u64
}
";
        let got = run(&[("crates/codec/src/batch.rs", src)]);
        assert!(got.is_empty(), "{got:?}");
    }
}
