//! Findings and report serialization (human text + hand-rolled JSON —
//! the crate carries no serde).
//!
//! The JSON report is **schema 8**: every finding carries a `chain`
//! array (empty for intraprocedural rules, the full call/lock chain for
//! the interprocedural rules), findings are sorted by (file, line, rule,
//! message) so output is byte-identical regardless of scan order or
//! thread count, and the summary enumerates **every** rule of
//! [`crate::registry::RULES`] with an explicit count (zero included) —
//! so a gate greping for one rule's count cannot silently miss a rule
//! the analyzer stopped running. Schema 8 retired the closure-capture
//! race family (the compiler enforces it: DESIGN "Static analysis");
//! later retirements — the unit-flow rules, then the five lock-graph rules
//! that `lock-leaf` replaced — changed which summary keys appear and left
//! the shape alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// JSON report schema version emitted by [`Report::render_json`].
pub const SCHEMA_VERSION: u32 = 8;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `pf-assert`.
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
    /// Call chain for interprocedural findings (`lock-leaf`,
    /// `lossy-narrow`), outermost first; empty for single-site findings.
    pub chain: Vec<String>,
}

impl Finding {
    /// Convenience constructor (no chain).
    pub fn new(rule: &str, file: &str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: message.into(),
            chain: Vec::new(),
        }
    }

    /// Constructor for interprocedural findings carrying a call chain.
    pub fn with_chain(
        rule: &str,
        file: &str,
        line: u32,
        message: impl Into<String>,
        chain: Vec<String>,
    ) -> Finding {
        Finding {
            chain,
            ..Finding::new(rule, file, line, message)
        }
    }
}

/// A full analysis report.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Canonical ordering so output is diff-stable across scan orders and
    /// thread counts.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
        });
    }

    /// Count of findings per rule id.
    pub fn by_rule(&self) -> BTreeMap<&str, usize> {
        let mut map = BTreeMap::new();
        for f in &self.findings {
            *map.entry(f.rule.as_str()).or_insert(0) += 1;
        }
        map
    }

    /// Human-readable rendering, one line per finding (plus its call
    /// chain, when present) and a summary.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
            for (depth, hop) in f.chain.iter().enumerate() {
                let _ = writeln!(out, "  {}-> {}", "  ".repeat(depth), hop);
            }
        }
        if self.findings.is_empty() {
            let _ = writeln!(
                out,
                "flcheck: OK — {} files scanned, 0 findings",
                self.files_scanned
            );
        } else {
            let _ = writeln!(
                out,
                "flcheck: FAIL — {} finding(s) in {} files scanned",
                self.findings.len(),
                self.files_scanned
            );
            for (rule, count) in self.by_rule() {
                let _ = writeln!(out, "  {rule}: {count}");
            }
        }
        out
    }

    /// Machine-readable JSON rendering (schema [`SCHEMA_VERSION`]).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"chain\": [",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
            for (j, hop) in f.chain.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(hop));
            }
            out.push_str("]}");
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"summary\": {");
        let _ = write!(out, "\"total\": {}", self.findings.len());
        let mut counts: BTreeMap<&str, usize> = crate::registry::ids().map(|r| (r, 0)).collect();
        for (rule, count) in self.by_rule() {
            counts.insert(rule, count);
        }
        for (rule, count) in counts {
            let _ = write!(out, ", {}: {}", json_str(rule), count);
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_structure() {
        let mut r = Report {
            findings: vec![Finding::new("pf-assert", "a \"b\".rs", 3, "line1\nline2")],
            files_scanned: 2,
        };
        r.sort();
        let j = r.render_json();
        assert!(j.contains("\"schema\": 8"));
        assert!(j.contains("\"rule\": \"pf-assert\""));
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("line1\\nline2"));
        assert!(j.contains("\"chain\": []"));
        assert!(j.contains("\"total\": 1"));
        assert!(j.contains("\"pf-assert\": 1"));
    }

    #[test]
    fn summary_enumerates_every_rule_with_zero_counts() {
        let r = Report {
            findings: vec![Finding::new("lock-leaf", "a.rs", 1, "bound guard")],
            files_scanned: 1,
        };
        let j = r.render_json();
        for rule in crate::registry::ids() {
            assert!(
                j.contains(&format!("\"{rule}\": ")),
                "summary missing {rule}: {j}"
            );
        }
        assert!(j.contains("\"lock-leaf\": 1"));
        assert!(j.contains("\"ct-branch\": 0"));
        assert!(j.contains("\"pf-assert\": 0"));
        assert!(j.contains("\"lossy-narrow\": 0"));
    }

    #[test]
    fn chains_render_in_json_and_human_output() {
        let mut r = Report {
            findings: vec![Finding::with_chain(
                "lock-leaf",
                "crates/core/src/a.rs",
                4,
                "guard held across a call that blocks in `deep`",
                vec![
                    "api (crates/core/src/a.rs:4)".to_string(),
                    "deep (crates/core/src/a.rs:9)".to_string(),
                ],
            )],
            files_scanned: 1,
        };
        r.sort();
        let j = r.render_json();
        assert!(j.contains(
            "\"chain\": [\"api (crates/core/src/a.rs:4)\", \"deep (crates/core/src/a.rs:9)\"]"
        ));
        let h = r.render_human();
        assert!(h.contains("-> api (crates/core/src/a.rs:4)"));
        assert!(h.contains("-> deep (crates/core/src/a.rs:9)"));
    }

    #[test]
    fn sort_is_by_file_line_rule_message() {
        let mut r = Report {
            findings: vec![
                Finding::new("z", "b.rs", 1, ""),
                Finding::new("a", "a.rs", 9, ""),
                Finding::new("a", "a.rs", 2, "second"),
                Finding::new("a", "a.rs", 2, "first"),
            ],
            files_scanned: 2,
        };
        r.sort();
        let order: Vec<_> = r
            .findings
            .iter()
            .map(|f| (f.file.as_str(), f.line, f.message.as_str()))
            .collect();
        assert_eq!(
            order,
            vec![
                ("a.rs", 2, "first"),
                ("a.rs", 2, "second"),
                ("a.rs", 9, ""),
                ("b.rs", 1, "")
            ]
        );
    }

    #[test]
    fn empty_report_renders_ok() {
        let r = Report {
            findings: vec![],
            files_scanned: 5,
        };
        assert!(r.render_human().contains("OK"));
        assert!(r.render_json().contains("\"total\": 0"));
    }
}
