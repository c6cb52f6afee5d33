//! Unit-flow (dimensional) analysis over the charging and
//! time-accounting layers.
//!
//! FLBooster's claimed speedups are only as trustworthy as its cost
//! accounting, and that accounting mixes four physical dimensions —
//! simulated seconds, wire bytes, limb-multiply counts, and message
//! counts — across `fl::net`, `fl::engine`, the model trainers, and
//! gpu-sim, with nothing but naming conventions keeping a bytes value
//! out of a seconds accumulator. This pass makes the conventions
//! checkable:
//!
//! - Every fn parameter and return value is assigned a unit from the
//!   lattice `{seconds, bytes, limb_mults, messages, dimensionless}`,
//!   first by explicit `// flcheck: unit(name, dim)` directives, then by
//!   inference from the workspace naming conventions (`*_seconds`,
//!   `*_bytes`, `*_ops` / `*_mac_count`, `*_messages`). `dimensionless`
//!   is the explicit opt-out: a declared-neutral value never conflicts.
//! - Units propagate interprocedurally over the call graph: a caller
//!   param with no unit of its own that is passed verbatim into a
//!   unit-carrying callee param inherits that unit (fill-only — a
//!   directive or name inference is never overwritten), with the
//!   teaching callee recorded so findings can show the chain.
//! - A fn marked `// flcheck: convert(from->to)` is a sanctioned
//!   dimension crossing (e.g. the `fl::net` transfer-time estimator
//!   converting bytes to seconds); its return value carries the target
//!   unit.
//!
//! Two rules consume the table:
//!
//! - **unit-mismatch** — two different known units meet in one additive
//!   expression, comparison, assignment, or accumulation
//!   (`total_seconds += payload_bytes`).
//! - **unit-unconverted** — a call argument's unit differs from the
//!   callee parameter's unit: the value crosses dimensions without
//!   passing through a declared `convert(..)` fn. The finding carries
//!   the propagation chain when the parameter's unit was inherited.
//!
//! **Soundness boundary** (where the pass stays silent rather than
//! guessing): multiplication/division/modulo legitimately change
//! dimension, so any multiplicative expression with two or more factors
//! is unit-unknown — `bytes as f64 / bandwidth_bytes_per_sec` never
//! fires. Identifiers outside the naming conventions, tuple fields,
//! struct literals, control-flow expressions (`if`/`match`), closures,
//! and macro bodies are likewise unknown. Mismatches need *two known*
//! units, so unknowns silence a site rather than flagging it.

use crate::callgraph::{hop, CallGraph, NodeId};
use crate::lexer::{TokKind, Token};
use crate::parse::{FnItem, ParsedFile};
use crate::report::Finding;
use crate::rules::debug_assert_span;
use crate::scan::{group_open, stmt_end};
use crate::source::match_brace;
use std::collections::{BTreeMap, BTreeSet};

/// The unit lattice. `Dimensionless` is the declared opt-out: it is
/// compatible with everything and never participates in a mismatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Simulated wall-clock seconds.
    Seconds,
    /// Wire/payload byte counts.
    Bytes,
    /// Limb-multiply (MAC) operation counts.
    LimbMults,
    /// Network message counts.
    Messages,
    /// Explicitly unitless (ratios, ids, flags).
    Dimensionless,
}

impl Unit {
    /// The directive spelling of this unit.
    pub fn name(self) -> &'static str {
        match self {
            Unit::Seconds => "seconds",
            Unit::Bytes => "bytes",
            Unit::LimbMults => "limb_mults",
            Unit::Messages => "messages",
            Unit::Dimensionless => "dimensionless",
        }
    }

    /// Parses a directive dimension name.
    pub fn from_dim(s: &str) -> Option<Unit> {
        match s {
            "seconds" => Some(Unit::Seconds),
            "bytes" => Some(Unit::Bytes),
            "limb_mults" => Some(Unit::LimbMults),
            "messages" => Some(Unit::Messages),
            "dimensionless" => Some(Unit::Dimensionless),
            _ => None,
        }
    }
}

impl std::fmt::Display for Unit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifiers whose `_bytes` suffix is a std byte-*array* idiom, not a
/// byte count.
const BYTE_ARRAY_IDIOMS: &[&str] = &[
    "to_le_bytes",
    "to_be_bytes",
    "to_ne_bytes",
    "from_le_bytes",
    "from_be_bytes",
    "from_ne_bytes",
    "as_bytes",
    "into_bytes",
];

/// Infers a unit from an identifier by the workspace naming
/// conventions. Returns `None` (unknown — silent) outside them.
pub fn infer_name(name: &str) -> Option<Unit> {
    if BYTE_ARRAY_IDIOMS.contains(&name) {
        return None;
    }
    if name == "seconds" || name.ends_with("_seconds") {
        Some(Unit::Seconds)
    } else if name == "bytes" || name.ends_with("_bytes") {
        Some(Unit::Bytes)
    } else if name == "ops"
        || name.ends_with("_ops")
        || name == "mac_count"
        || name.ends_with("_mac_count")
        || name == "limb_mults"
        || name.ends_with("_mults")
    {
        Some(Unit::LimbMults)
    } else if name == "messages" || name.ends_with("_messages") {
        Some(Unit::Messages)
    } else {
        None
    }
}

/// An explicit `unit(name, dim)` directive on `f`, if any.
fn directive_unit(f: &FnItem, name: &str) -> Option<Unit> {
    f.marks
        .units
        .iter()
        .find(|(n, _)| n == name)
        .and_then(|(_, d)| Unit::from_dim(d))
}

/// Per-fn unit table: one slot per parameter (positionally aligned with
/// [`FnItem::params`], `self` included) plus the return unit.
#[derive(Debug, Clone)]
pub struct FnUnits {
    /// Parameter units (directive wins over inference; `None` unknown).
    pub params: Vec<Option<Unit>>,
    /// For a *propagated* param unit, the callee that taught it.
    pub prov: Vec<Option<NodeId>>,
    /// Return unit: `unit(return, dim)` directive, else the target of a
    /// `convert(..)` declaration, else inference from the fn name.
    pub ret: Option<Unit>,
}

/// Seeds the unit table from directives and name inference, before
/// propagation.
fn seed_units(files: &[ParsedFile]) -> Vec<Vec<FnUnits>> {
    files
        .iter()
        .map(|pf| {
            pf.fns
                .iter()
                .map(|f| {
                    let params: Vec<Option<Unit>> = f
                        .params
                        .iter()
                        .map(|p| directive_unit(f, p).or_else(|| infer_name(p)))
                        .collect();
                    let prov = vec![None; params.len()];
                    let ret = directive_unit(f, "return")
                        .or_else(|| {
                            f.marks
                                .converts
                                .first()
                                .and_then(|(_, to)| Unit::from_dim(to))
                        })
                        .or_else(|| infer_name(&f.name));
                    FnUnits { params, prov, ret }
                })
                .collect()
        })
        .collect()
}

/// The single unambiguous callee of call `ci` in `n`, if resolution
/// produced exactly one candidate. Ambiguous names are skipped: guessing
/// a unit from the wrong overload would poison the table.
fn sole_target(graph: &CallGraph, n: NodeId, ci: usize) -> Option<NodeId> {
    let mut it = graph.out(n).iter().filter(|e| e.call == ci);
    match (it.next(), it.next()) {
        (Some(e), None) => Some(e.to),
        _ => None,
    }
}

/// A bare identifier argument (`x`, `&x`, `&mut x`, `*x`), if the token
/// span is nothing more.
fn bare_ident(toks: &[Token]) -> Option<&str> {
    let mut i = 0;
    while i < toks.len() && (toks[i].is_op("&") || toks[i].is_op("*") || toks[i].is_ident("mut")) {
        i += 1;
    }
    if i + 1 == toks.len() && toks[i].kind == TokKind::Ident {
        Some(&toks[i].text)
    } else {
        None
    }
}

/// Arg index → param index: method-style calls skip the `self` slot.
fn param_offset(call_is_method: bool) -> usize {
    usize::from(call_is_method)
}

/// Fill-only interprocedural propagation: a caller param with no unit
/// that is passed verbatim to a unit-carrying callee param inherits that
/// unit. Monotone (slots only go `None` → `Some`), so the fixpoint
/// terminates; iteration order never affects the result because filled
/// slots are never rewritten.
fn propagate(files: &[ParsedFile], graph: &CallGraph, units: &mut [Vec<FnUnits>]) {
    loop {
        let mut changed = false;
        for (fi, pf) in files.iter().enumerate() {
            for (gi, f) in pf.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                for (ci, call) in f.calls.iter().enumerate() {
                    let Some(to) = sole_target(graph, (fi, gi), ci) else {
                        continue;
                    };
                    let off = param_offset(call.is_method);
                    for (j, &(s, e)) in call.args.iter().enumerate() {
                        let pu = units[to.0][to.1].params.get(j + off).copied().flatten();
                        let Some(pu) = pu else { continue };
                        if pu == Unit::Dimensionless {
                            continue;
                        }
                        let Some(name) = bare_ident(&pf.src.tokens[s..e]) else {
                            continue;
                        };
                        let Some(pi) = f.params.iter().position(|p| p == name) else {
                            continue;
                        };
                        if units[fi][gi].params[pi].is_none() {
                            units[fi][gi].params[pi] = Some(pu);
                            units[fi][gi].prov[pi] = Some(to);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// A known, conflict-relevant unit (`Dimensionless` is neutral).
fn strict(u: Option<Unit>) -> Option<Unit> {
    u.filter(|u| *u != Unit::Dimensionless)
}

/// Expression evaluation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Unparseable construct — abandon the enclosing expression.
    Bail,
    /// No unit information (silent).
    Unknown,
    /// Literal / unit-agnostic constant: compatible with anything.
    Neutral,
    /// A known unit.
    Known(Unit),
}

/// Keywords that start constructs the expression grammar does not model.
const BAIL_KEYWORDS: &[&str] = &[
    "if", "match", "loop", "while", "for", "return", "move", "unsafe", "break", "continue", "else",
    "let", "async", "await", "dyn", "impl", "fn",
];

/// Expression evaluator over one fn's token stream. Collects
/// `unit-mismatch` conflicts as it walks additive expressions.
struct ExprCx<'a> {
    files: &'a [ParsedFile],
    units: &'a [Vec<FnUnits>],
    /// The fn being scanned.
    node: NodeId,
    /// Call-site callee ident index → sole resolved target.
    targets: BTreeMap<usize, NodeId>,
    /// `(line, message)` unit-mismatch conflicts found while walking.
    conflicts: Vec<(u32, String)>,
}

impl<'a> ExprCx<'a> {
    fn toks(&self) -> &'a [Token] {
        &self.files[self.node.0].src.tokens
    }

    fn f(&self) -> &'a FnItem {
        &self.files[self.node.0].fns[self.node.1]
    }

    /// Renders a token span for messages (truncated join).
    fn text(&self, s: usize, e: usize) -> String {
        let mut parts: Vec<&str> = self.toks()[s..e].iter().map(|t| t.text.as_str()).collect();
        if parts.len() > 8 {
            parts.truncate(8);
            parts.push("..");
        }
        parts.join(" ")
    }

    /// The unit of a single identifier in this fn's scope: a parameter's
    /// table entry when it is one, else name inference.
    fn ident_unit(&self, name: &str, single_bare: bool) -> Option<Unit> {
        if single_bare {
            if let Some(pi) = self.f().params.iter().position(|p| p == name) {
                return strict(self.units[self.node.0][self.node.1].params[pi]);
            }
        }
        strict(infer_name(name))
    }

    /// The return unit of the call whose callee ident sits at `name_idx`.
    /// Falls back to name inference when resolution is ambiguous or
    /// out-of-workspace (`.bytes()` stays bytes either way).
    fn call_ret_unit(&self, name_idx: usize) -> Option<Unit> {
        if let Some(&to) = self.targets.get(&name_idx) {
            return strict(self.units[to.0][to.1].ret);
        }
        strict(infer_name(&self.toks()[name_idx].text))
    }

    /// Additive expression: `mul (('+'|'-') mul)*`. Two different known
    /// units meeting here is a `unit-mismatch`. The result unit is the
    /// single known unit when the addends agree (literals are neutral),
    /// else unknown.
    fn eval_add(&mut self, i: &mut usize, end: usize) -> Ev {
        let mut acc: Option<(Unit, (usize, usize))> = None;
        let mut any_unknown = false;
        loop {
            let start = *i;
            let term = self.eval_mul(i, end);
            let span = (start, *i);
            match term {
                Ev::Bail => return Ev::Bail,
                Ev::Unknown => any_unknown = true,
                Ev::Neutral => {}
                Ev::Known(u) => match acc {
                    None => acc = Some((u, span)),
                    Some((au, aspan)) if au != u => {
                        let line = self.toks()[span.0].line;
                        self.conflicts.push((
                            line,
                            format!(
                                "adds `{}` ({au}) and `{}` ({u}): incompatible units",
                                self.text(aspan.0, aspan.1),
                                self.text(span.0, span.1),
                            ),
                        ));
                        any_unknown = true;
                    }
                    Some(_) => {}
                },
            }
            if *i < end && (self.toks()[*i].is_op("+") || self.toks()[*i].is_op("-")) {
                *i += 1;
            } else {
                break;
            }
        }
        match acc {
            Some((u, _)) if !any_unknown => Ev::Known(u),
            Some(_) => Ev::Unknown,
            None if any_unknown => Ev::Unknown,
            None => Ev::Neutral,
        }
    }

    /// Multiplicative expression. Two or more factors change dimension,
    /// so the result is unknown (the soundness boundary): the pass never
    /// guesses what `bytes / bandwidth` means.
    fn eval_mul(&mut self, i: &mut usize, end: usize) -> Ev {
        let first = self.eval_term(i, end);
        if first == Ev::Bail {
            return Ev::Bail;
        }
        let mut factors = 1;
        while *i < end
            && (self.toks()[*i].is_op("*")
                || self.toks()[*i].is_op("/")
                || self.toks()[*i].is_op("%"))
        {
            *i += 1;
            if self.eval_term(i, end) == Ev::Bail {
                return Ev::Bail;
            }
            factors += 1;
        }
        if factors > 1 {
            Ev::Unknown
        } else {
            first
        }
    }

    /// One operand: literal, parenthesized expression, or an
    /// ident/field/call chain, with `as`-cast and `?` postfixes.
    fn eval_term(&mut self, i: &mut usize, end: usize) -> Ev {
        let toks = self.toks();
        // Prefix operators that preserve units.
        while *i < end
            && (toks[*i].is_op("&")
                || toks[*i].is_op("*")
                || toks[*i].is_op("-")
                || toks[*i].is_op("!")
                || toks[*i].is_ident("mut"))
        {
            *i += 1;
        }
        if *i >= end {
            return Ev::Bail;
        }
        let t = &toks[*i];
        let mut result = match t.kind {
            TokKind::Num | TokKind::Lit => {
                *i += 1;
                Ev::Neutral
            }
            TokKind::Open if t.text == "(" => {
                let close = match_brace(toks, *i); // one past `)`
                let inner_end = close.saturating_sub(1).max(*i + 1);
                let mut depth = 0i32;
                let tuple = toks[*i + 1..inner_end].iter().any(|t| {
                    match t.kind {
                        TokKind::Open => depth += 1,
                        TokKind::Close => depth -= 1,
                        _ => {}
                    }
                    depth == 0 && t.is_op(",")
                });
                let unit = if tuple {
                    Ev::Unknown
                } else {
                    let mut k = *i + 1;
                    match self.eval_add(&mut k, inner_end) {
                        Ev::Known(u) if k == inner_end => Ev::Known(u),
                        Ev::Neutral if k == inner_end => Ev::Neutral,
                        _ => Ev::Unknown,
                    }
                };
                *i = close;
                // A postfix chain on a group (`(a + b).sqrt()`) is not
                // modeled: the method may change dimension.
                if *i < end && (self.toks()[*i].is_op(".") || self.toks()[*i].is_op("?")) {
                    return Ev::Unknown;
                }
                unit
            }
            TokKind::Open => {
                // `[..]` array literal or block start: not modeled.
                *i = match_brace(toks, *i);
                Ev::Unknown
            }
            TokKind::Ident if BAIL_KEYWORDS.contains(&t.text.as_str()) => {
                return Ev::Bail;
            }
            TokKind::Ident => self.eval_chain(i, end),
            _ => return Ev::Bail,
        };
        // `as`-casts re-type but never re-unit.
        while *i < end && self.toks()[*i].is_ident("as") && *i + 1 < end {
            *i += 1;
            if self.toks()[*i].kind == TokKind::Ident {
                *i += 1;
                while *i + 1 < end
                    && self.toks()[*i].is_op("::")
                    && self.toks()[*i + 1].kind == TokKind::Ident
                {
                    *i += 2;
                }
            } else {
                result = Ev::Unknown;
                break;
            }
        }
        result
    }

    /// An ident / field-access / call chain:
    /// `a`, `a.b`, `a::b`, `a.b(..).c`, `a[i].b`, with `?` links. The
    /// unit is the last element's: a call's return unit, a lone
    /// parameter's table entry, or name inference on the final field.
    fn eval_chain(&mut self, i: &mut usize, end: usize) -> Ev {
        let toks = self.toks();
        let chain_start = *i;
        let mut last_ident = *i; // index of most recent ident
        let mut last_is_call = false;
        let mut call_unit: Option<Unit> = None;
        let mut unknown_tail = false; // tuple index etc.
        *i += 1;
        while *i < end {
            let t = &toks[*i];
            if (t.is_op(".") || t.is_op("::")) && *i + 1 < end {
                match toks[*i + 1].kind {
                    TokKind::Ident => {
                        last_ident = *i + 1;
                        last_is_call = false;
                        unknown_tail = false;
                        *i += 2;
                    }
                    TokKind::Num if t.is_op(".") => {
                        // Tuple field: positional, no name to infer from.
                        unknown_tail = true;
                        last_is_call = false;
                        *i += 2;
                    }
                    _ => break,
                }
            } else if t.kind == TokKind::Open && t.text == "(" {
                // Call: the chain's unit becomes the return unit.
                call_unit = self.call_ret_unit(last_ident);
                last_is_call = true;
                *i = match_brace(toks, *i);
            } else if t.kind == TokKind::Open && t.text == "[" {
                // Indexing keeps the container's element naming.
                *i = match_brace(toks, *i);
            } else if t.is_op("?") {
                *i += 1;
            } else if t.is_op("!") {
                // Macro invocation: contents are not modeled.
                *i += 1;
                if *i < end && self.toks()[*i].kind == TokKind::Open {
                    *i = match_brace(self.toks(), *i);
                }
                return Ev::Unknown;
            } else {
                break;
            }
        }
        if last_is_call {
            return match call_unit {
                Some(u) => Ev::Known(u),
                None => Ev::Unknown,
            };
        }
        if unknown_tail {
            return Ev::Unknown;
        }
        let name = &self.toks()[last_ident].text;
        let single_bare = chain_start == last_ident && *i == last_ident + 1;
        match self.ident_unit(name, single_bare) {
            Some(u) => Ev::Known(u),
            None => Ev::Unknown,
        }
    }
}

/// Tokens at which an additive expression may legitimately stop (`{`
/// ends an `if`/`while` condition); a `Known` result followed by
/// anything else is downgraded to unknown (unmodeled syntax — e.g. a
/// `>` turning the span into a comparison).
fn safe_stop(toks: &[Token], i: usize, end: usize) -> bool {
    if i >= end {
        return true;
    }
    let t = &toks[i];
    matches!(
        t.text.as_str(),
        ";" | "," | ")" | "]" | "}" | "{" | "&&" | "||"
    ) && matches!(t.kind, TokKind::Op | TokKind::Close | TokKind::Open)
}

/// [`ExprCx::eval_add`] with the [`safe_stop`] downgrade applied.
fn eval_span(cx: &mut ExprCx<'_>, s: usize, e: usize) -> Ev {
    let mut i = s;
    let ev = cx.eval_add(&mut i, e);
    match ev {
        Ev::Known(_) | Ev::Neutral if !safe_stop(cx.toks(), i, e) => Ev::Unknown,
        ev => ev,
    }
}

/// Walks an lvalue / comparison-operand chain *backward* from `op`
/// (exclusive): `nodes[k].busy_until`, `self.stats.bytes`, `total`.
/// Returns `(unit, rendered chain)` when the final element carries one.
fn lhs_chain(cx: &ExprCx<'_>, lo: usize, op: usize) -> Option<(Unit, String)> {
    let toks = cx.toks();
    let mut j = op; // exclusive end of the remaining walk
    let mut last: Option<usize> = None;
    while j > lo {
        let t = &toks[j - 1];
        if t.kind == TokKind::Close && t.text == "]" {
            // Skip the index group backward.
            j = group_open(toks, j - 1).filter(|&o| o >= lo)?;
        } else if t.kind == TokKind::Ident {
            if BAIL_KEYWORDS.contains(&t.text.as_str()) {
                break;
            }
            if last.is_none() {
                last = Some(j - 1);
            }
            j -= 1;
            if j > lo && (toks[j - 1].is_op(".") || toks[j - 1].is_op("::")) {
                j -= 1;
            } else {
                break;
            }
        } else if t.kind == TokKind::Num && last.is_none() {
            // `x.0` tuple target: positional, no unit.
            return None;
        } else {
            break;
        }
    }
    let li = last?;
    let name = &toks[li].text;
    let single_bare = j == li && op == li + 1;
    let unit = cx.ident_unit(name, single_bare)?;
    Some((unit, cx.text(j, op)))
}

/// Comparison operators checked for cross-unit operands. `<` and `>`
/// also appear as generic brackets; those sides never both carry known
/// units, so the both-known requirement keeps them silent.
const CMP_OPS: &[&str] = &["<", "<=", ">", ">=", "==", "!="];

/// Runs the `unit-mismatch` and `unit-unconverted` rules over one fn.
fn scan_fn(
    files: &[ParsedFile],
    graph: &CallGraph,
    units: &[Vec<FnUnits>],
    node: NodeId,
    out: &mut Vec<Finding>,
) {
    let pf = &files[node.0];
    let f = &pf.fns[node.1];
    let mut targets = BTreeMap::new();
    for (ci, call) in f.calls.iter().enumerate() {
        if let Some(to) = sole_target(graph, node, ci) {
            targets.insert(call.name_idx, to);
        }
    }
    let mut cx = ExprCx {
        files,
        units,
        node,
        targets,
        conflicts: Vec::new(),
    };

    // Statement walk: compound assignments, plain assignments, and
    // comparisons. Nested fns and debug_assert bodies are skipped (the
    // former are scanned as their own items, the latter are test-only
    // arithmetic by definition).
    let toks = &pf.src.tokens;
    let mut i = f.body_start;
    while i < f.body_end {
        if let Some(&(_, ne)) = f.nested.iter().find(|&&(ns, ne)| ns <= i && i < ne) {
            i = ne;
            continue;
        }
        if let Some(skip) = debug_assert_span(toks, i) {
            i = skip;
            continue;
        }
        let t = &toks[i];
        // `return expr;` — evaluate the expression for internal mixed
        // additions (the evaluator records conflicts as a side effect).
        // `i` still advances by one so a comparison inside the return
        // value gets its own check below.
        if t.kind == TokKind::Ident && t.text == "return" {
            let se = stmt_end(toks, i + 1, f.body_end);
            let _ = eval_span(&mut cx, i + 1, se);
            i += 1;
            continue;
        }
        if t.kind == TokKind::Op && (t.text == "+=" || t.text == "-=" || t.text == "=") {
            let se = stmt_end(toks, i + 1, f.body_end);
            let rhs = eval_span(&mut cx, i + 1, se);
            if let Some((lu, ltext)) = lhs_chain(&cx, f.body_start, i) {
                if let Ev::Known(ru) = rhs {
                    if ru != lu {
                        let verb = if t.text == "=" {
                            "assigns"
                        } else {
                            "accumulates"
                        };
                        cx.conflicts.push((
                            t.line,
                            format!(
                                "{verb} a {ru} value into `{ltext}` ({lu}): incompatible units"
                            ),
                        ));
                    }
                }
            }
            i = se;
            continue;
        }
        if t.kind == TokKind::Op && CMP_OPS.contains(&t.text.as_str()) {
            if let Some((lu, ltext)) = lhs_chain(&cx, f.body_start, i) {
                let se = stmt_end(toks, i + 1, f.body_end);
                if let Ev::Known(ru) = eval_span(&mut cx, i + 1, se) {
                    if ru != lu {
                        cx.conflicts.push((
                            t.line,
                            format!(
                                "compares `{ltext}` ({lu}) with a {ru} value: incompatible units"
                            ),
                        ));
                    }
                }
            }
            i += 1;
            continue;
        }
        i += 1;
    }

    // Call-argument units vs callee parameter units (`unit-unconverted`).
    let mut unconverted: Vec<Finding> = Vec::new();
    for (ci, call) in f.calls.iter().enumerate() {
        let Some(to) = sole_target(graph, node, ci) else {
            continue;
        };
        let callee = &files[to.0].fns[to.1];
        let off = param_offset(call.is_method);
        for (j, &(s, e)) in call.args.iter().enumerate() {
            let au = eval_span(&mut cx, s, e);
            let pj = j + off;
            let Some(pu) = strict(units[to.0][to.1].params.get(pj).copied().flatten()) else {
                continue;
            };
            let Ev::Known(au) = au else { continue };
            if au == pu {
                continue;
            }
            let line = toks.get(s).map_or(call.line, |t| t.line);
            if pf.src.is_allowed("unit-unconverted", line) {
                continue;
            }
            let mut msg = format!(
                "passes `{}` ({au}) to parameter `{}` ({pu}) of `{}` without a convert({au}->{pu}) conversion",
                cx.text(s, e),
                callee.params.get(pj).map_or("?", |p| p.as_str()),
                callee.name,
            );
            if let Some(conv) = find_converter(files, au, pu) {
                msg.push_str(&format!(" — route it through `{conv}`"));
            }
            // Chain: the call edge, extended through propagation
            // provenance when the parameter's unit was inherited.
            let mut chain = vec![hop(files, node), hop(files, to)];
            let mut cur = to;
            let mut pcur = pj;
            let mut seen = BTreeSet::from([cur]);
            while let Some(next) = units[cur.0][cur.1].prov[pcur] {
                if !seen.insert(next) {
                    break;
                }
                chain.push(hop(files, next));
                // The inherited unit fills some param of `next`; find a
                // slot declaring it natively or keep following.
                let nu = &units[next.0][next.1];
                match nu.params.iter().position(|p| *p == Some(pu)) {
                    Some(np) => {
                        cur = next;
                        pcur = np;
                    }
                    None => break,
                }
            }
            unconverted.push(Finding::with_chain(
                "unit-unconverted",
                &pf.src.rel_path,
                line,
                msg,
                chain,
            ));
        }
    }

    for (line, msg) in std::mem::take(&mut cx.conflicts) {
        if !pf.src.is_allowed("unit-mismatch", line) {
            out.push(Finding::new("unit-mismatch", &pf.src.rel_path, line, msg));
        }
    }
    out.extend(unconverted);
}

/// The first fn (in file/fn order) declaring `convert(from->to)`.
fn find_converter(files: &[ParsedFile], from: Unit, to: Unit) -> Option<String> {
    for pf in files {
        for f in &pf.fns {
            if f.marks
                .converts
                .iter()
                .any(|(a, b)| a == from.name() && b == to.name())
            {
                return Some(f.name.clone());
            }
        }
    }
    None
}

/// Runs the `unit-mismatch` and `unit-unconverted` rules.
pub fn check_units(files: &[ParsedFile], graph: &CallGraph, out: &mut Vec<Finding>) {
    let mut units = seed_units(files);
    propagate(files, graph, &mut units);
    for (fi, pf) in files.iter().enumerate() {
        for (gi, f) in pf.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            scan_fn(files, graph, &units, (fi, gi), out);
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
        check_units(&parsed, &graph, &mut out);
        out
    }

    fn rules_lines(out: &[Finding]) -> Vec<(String, u32)> {
        out.iter().map(|f| (f.rule.clone(), f.line)).collect()
    }

    #[test]
    fn name_inference_follows_the_conventions() {
        assert_eq!(infer_name("total_seconds"), Some(Unit::Seconds));
        assert_eq!(infer_name("bytes"), Some(Unit::Bytes));
        assert_eq!(infer_name("mont_mul_mac_count"), Some(Unit::LimbMults));
        assert_eq!(infer_name("thread_ops"), Some(Unit::LimbMults));
        assert_eq!(infer_name("messages"), Some(Unit::Messages));
        // `flops` is floating-point ops, not `_ops`; and std byte-array
        // idioms are arrays, not counts.
        assert_eq!(infer_name("flops"), None);
        assert_eq!(infer_name("to_le_bytes"), None);
        assert_eq!(infer_name("busy_until"), None);
    }

    #[test]
    fn accumulating_bytes_into_seconds_is_flagged() {
        let out = run(&[(
            "src/a.rs",
            "fn f(payload_bytes: u64) {\n    let mut total_seconds = 0.0;\n    total_seconds += payload_bytes as f64;\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![("unit-mismatch".to_string(), 3)]);
        assert!(out[0].message.contains("accumulates a bytes value"));
    }

    #[test]
    fn adding_mixed_units_in_one_expression_is_flagged() {
        let out = run(&[(
            "src/a.rs",
            "fn f(a_seconds: f64, b_bytes: f64) -> f64 {\n    let x = a_seconds + b_bytes;\n    x\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![("unit-mismatch".to_string(), 2)]);
    }

    #[test]
    fn adding_mixed_units_in_a_return_expression_is_flagged() {
        let out = run(&[(
            "src/a.rs",
            "fn f(a_seconds: f64, b_bytes: f64) -> f64 {\n    return a_seconds + b_bytes;\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![("unit-mismatch".to_string(), 2)]);
        assert!(out[0].message.contains("incompatible units"));
    }

    #[test]
    fn comparison_inside_a_return_still_gets_its_own_check() {
        let out = run(&[(
            "src/a.rs",
            "fn f(deadline_seconds: f64, payload_bytes: f64) -> bool {\n    return deadline_seconds < payload_bytes;\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![("unit-mismatch".to_string(), 2)]);
        assert!(out[0].message.contains("compares"));
    }

    #[test]
    fn comparing_across_units_is_flagged() {
        let out = run(&[(
            "src/a.rs",
            "fn f(deadline_seconds: f64, payload_bytes: f64) -> bool {\n    deadline_seconds < payload_bytes\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![("unit-mismatch".to_string(), 2)]);
    }

    #[test]
    fn multiplicative_factors_silence_the_expression() {
        // The canonical transfer-time shape: latency + count * per_item
        // + bytes / bandwidth. Division/multiplication change dimension,
        // so no mismatch fires.
        let out = run(&[(
            "src/a.rs",
            "fn f(latency_seconds: f64, n: f64, per_item_seconds: f64, bytes: f64, bandwidth_bytes_per_sec: f64) -> f64 {\n    latency_seconds + n * per_item_seconds + bytes / bandwidth_bytes_per_sec\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![]);
    }

    #[test]
    fn directives_beat_inference_and_dimensionless_opts_out() {
        let out = run(&[(
            "src/a.rs",
            "// flcheck: unit(payload_bytes, dimensionless)\nfn f(payload_bytes: u64) {\n    let mut total_seconds = 0.0;\n    total_seconds += payload_bytes as f64;\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![]);
    }

    #[test]
    fn call_args_crossing_dimensions_are_unconverted() {
        let out = run(&[(
            "src/a.rs",
            "fn sleep(seconds: f64) -> f64 {\n    seconds\n}\nfn g(payload_bytes: f64) -> f64 {\n    sleep(payload_bytes)\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![("unit-unconverted".to_string(), 5)]);
        assert!(out[0].message.contains("bytes"));
        assert!(out[0].chain.len() >= 2, "chain: {:?}", out[0].chain);
    }

    #[test]
    fn declared_converters_sanction_the_crossing() {
        let out = run(&[(
            "src/a.rs",
            "// flcheck: convert(bytes->seconds)\nfn transfer_time(bytes: f64) -> f64 {\n    bytes / 1.0e9\n}\nfn sleep(seconds: f64) -> f64 {\n    seconds\n}\nfn g(payload_bytes: f64) -> f64 {\n    sleep(transfer_time(payload_bytes))\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![]);
    }

    #[test]
    fn unconverted_message_names_a_known_converter() {
        let out = run(&[(
            "src/a.rs",
            "// flcheck: convert(bytes->seconds)\nfn transfer_time(bytes: f64) -> f64 {\n    bytes / 1.0e9\n}\nfn sleep(seconds: f64) -> f64 {\n    seconds\n}\nfn g(payload_bytes: f64) -> f64 {\n    sleep(payload_bytes)\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![("unit-unconverted".to_string(), 9)]);
        assert!(
            out[0].message.contains("route it through `transfer_time`"),
            "message: {}",
            out[0].message
        );
    }

    #[test]
    fn param_units_propagate_through_unannotated_wrappers() {
        // `relay`'s `amount` has no unit of its own; it inherits seconds
        // from `sleep`, so the bytes argument in `g` is flagged with the
        // full teaching chain.
        let out = run(&[(
            "src/a.rs",
            "fn sleep(seconds: f64) -> f64 {\n    seconds\n}\nfn relay(amount: f64) -> f64 {\n    sleep(amount)\n}\nfn g(payload_bytes: f64) -> f64 {\n    relay(payload_bytes)\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![("unit-unconverted".to_string(), 8)]);
        assert!(
            out[0].chain.len() == 3,
            "expected g -> relay -> sleep, got {:?}",
            out[0].chain
        );
    }

    #[test]
    fn allow_suppressions_work_for_unit_rules() {
        let out = run(&[(
            "src/a.rs",
            "fn f(payload_bytes: u64) {\n    let mut total_seconds = 0.0;\n    // flcheck: allow(unit-mismatch) — deliberate\n    total_seconds += payload_bytes as f64;\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![]);
    }

    #[test]
    fn test_code_is_exempt() {
        let out = run(&[(
            "src/a.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(payload_bytes: u64) {\n        let mut total_seconds = 0.0;\n        total_seconds += payload_bytes as f64;\n    }\n}\n",
        )]);
        assert_eq!(rules_lines(&out), vec![]);
    }
}
