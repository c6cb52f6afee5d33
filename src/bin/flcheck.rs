//! CLI for the workspace static analyzer.
//!
//! ```text
//! cargo run --release --bin flcheck -- [--root DIR] [--json FILE] [--rule NAME] [--quiet]
//! cargo run --release --bin flcheck -- --rules | --explain RULE
//! ```
//!
//! Exits 0 when the tree is clean, 1 when any rule fires, 2 on usage or
//! I/O errors. `--json` additionally writes the machine-readable report
//! (the harness points it at `results/flcheck_report.json`). `--rule`
//! restricts the report — findings, summary, and exit code — to one rule
//! id (repeatable), handy when iterating on a single discipline.
//! `--rules` prints every rule id, one per line (the harness drives its
//! per-rule gate loop off this, so a new pass can't ship without a
//! gate); `--explain RULE` prints the rule's family, a one-paragraph
//! description, and a minimal triggering example.

use flcheck::registry;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut rules: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root requires a directory"),
            },
            "--json" => match args.next() {
                Some(v) => json_path = Some(PathBuf::from(v)),
                None => return usage("--json requires a file path"),
            },
            "--rules" => {
                for rule in registry::ids() {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => match args.next() {
                Some(v) => match registry::rule(&v) {
                    Some(doc) => {
                        println!("{} ({} family)", doc.id, doc.family);
                        println!();
                        println!("{}", doc.detail);
                        println!();
                        println!("example:");
                        for line in doc.example.lines() {
                            println!("    {line}");
                        }
                        return ExitCode::SUCCESS;
                    }
                    None => return unknown_rule(&v),
                },
                None => return usage("--explain requires a rule id"),
            },
            "--rule" => match args.next() {
                Some(v) if registry::rule(&v).is_some() => rules.push(v),
                Some(v) => return unknown_rule(&v),
                None => return usage("--rule requires a rule id"),
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: flcheck [--root DIR] [--json FILE] [--rule NAME] [--quiet]\n\
                     \x20      flcheck --rules | --explain RULE\n\
                     Static analysis: constant-time discipline and release asserts.\n\
                     --rule NAME    keep only findings for this rule id (repeatable)\n\
                     --rules        print every rule id, one per line\n\
                     --explain RULE print a rule's description and example"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let mut report = match flcheck::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flcheck: error scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if !rules.is_empty() {
        report.findings.retain(|f| rules.contains(&f.rule));
    }

    if let Some(path) = json_path {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(&path, report.render_json()) {
            eprintln!("flcheck: error writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if !quiet {
        print!("{}", report.render_human());
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn unknown_rule(rule: &str) -> ExitCode {
    let known: Vec<&str> = registry::ids().collect();
    usage(&format!(
        "unknown rule `{rule}` (known: {})",
        known.join(", ")
    ))
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("flcheck: {msg} (see --help)");
    ExitCode::from(2)
}
