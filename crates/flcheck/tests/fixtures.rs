//! Fixture-based end-to-end tests.
//!
//! Each fixture under `tests/fixtures/` is analyzed through
//! [`flcheck::check_file`] with a synthetic workspace path (the path
//! selects which rule families apply), and the findings are compared
//! against exact `(rule, line)` pairs. The `fixtures` directory is in
//! the walker's skip list, so these files never leak into a real scan —
//! they also need not compile.

use flcheck::check_file;

fn rules_and_lines(path: &str, src: &str) -> Vec<(String, u32)> {
    check_file(path, src)
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn ct_fixture_fires_every_ct_rule_at_exact_lines() {
    let src = include_str!("fixtures/ct_violations.rs");
    let got = rules_and_lines("crates/mpint/src/ct_fixture.rs", src);
    let want: Vec<(String, u32)> = [
        ("ct-branch", 5),       // `if` on the secret
        ("ct-compare", 5),      // `==` in its predicate
        ("ct-return", 6),       // early exit
        ("ct-compare", 8),      // `!=`
        ("ct-shortcircuit", 8), // `&&`
        ("ct-compare", 9),      // `.min()`
    ]
    .into_iter()
    .map(|(r, l)| (r.to_string(), l))
    .collect();
    assert_eq!(got, want);
}

#[test]
fn ct_findings_carry_the_given_path() {
    let src = include_str!("fixtures/ct_violations.rs");
    let findings = check_file("crates/mpint/src/ct_fixture.rs", src);
    assert!(!findings.is_empty());
    for f in &findings {
        assert_eq!(f.file, "crates/mpint/src/ct_fixture.rs");
    }
}

#[test]
fn pf_fixture_fires_every_panic_rule_at_exact_lines() {
    let src = include_str!("fixtures/pf_violations.rs");
    let got = rules_and_lines("crates/he/src/pf_fixture.rs", src);
    // `unwrap`, `expect`, `panic!` and indexing are clippy's.
    assert_eq!(
        got,
        vec![("pf-assert".to_string(), 6)],
        "test-module panics must stay exempt"
    );
}

#[test]
fn pf_rules_do_not_apply_outside_library_crates() {
    let src = include_str!("fixtures/pf_violations.rs");
    // The bench binary and tool sources are out of panic-freedom scope.
    assert_eq!(rules_and_lines("src/bin/bench_fixture.rs", src), vec![]);
}

#[test]
fn allow_directives_suppress_every_family() {
    let src = include_str!("fixtures/allowed_clean.rs");
    // Same violation shapes as the other fixtures, each covered by an
    // allow / allow-file directive — and in full panic-freedom scope.
    let path = "crates/he/src/allowed_fixture.rs";
    assert_eq!(rules_and_lines(path, src), vec![]);
}

#[test]
fn walker_skips_the_fixture_directory() {
    let tests_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests");
    let files = flcheck::collect_files(&tests_dir).expect("walk tests dir");
    assert!(
        files
            .iter()
            .all(|p| !p.to_string_lossy().contains("fixtures/")),
        "fixtures must be excluded from the walk, got {files:?}"
    );
}

fn workspace(inputs: &[(&str, &str)]) -> Vec<flcheck::rules::Finding> {
    let owned: Vec<(String, String)> = inputs
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    flcheck::check_workspace(&owned)
}

#[test]
fn workspace_report_is_deterministic_across_input_order() {
    let ct = include_str!("fixtures/ct_violations.rs");
    let pf = include_str!("fixtures/pf_violations.rs");
    let fwd = workspace(&[
        ("crates/mpint/src/ct_fixture.rs", ct),
        ("crates/he/src/pf_fixture.rs", pf),
    ]);
    let rev = workspace(&[
        ("crates/he/src/pf_fixture.rs", pf),
        ("crates/mpint/src/ct_fixture.rs", ct),
    ]);
    assert_eq!(fwd, rev);
    // Both files' findings, the pf fixture's path sorting first.
    assert_eq!(fwd.len(), 7);
    assert_eq!(fwd[0].file, "crates/he/src/pf_fixture.rs");
}
