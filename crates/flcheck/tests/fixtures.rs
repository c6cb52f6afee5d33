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
fn ld_fixture_reports_every_bound_guard_as_lock_leaf() {
    let src = include_str!("fixtures/ld_violations.rs");
    let path = "src/ld_fixture.rs";
    // `lock-leaf` needs the call graph, so the per-file phase is silent.
    assert_eq!(rules_and_lines(path, src), vec![]);

    // The inverted order in `backwards` and the wait in
    // `held_across_recv` both start from a `let`-bound guard, which is
    // where a leaf lock stops them: no order to declare, no wait to find.
    let report = workspace(&[(path, src)]);
    assert_eq!(
        leaf_lines(&report),
        vec![
            (
                12,
                "guard of `counters` in `backwards` is `let`-bound".to_string()
            ),
            (
                13,
                "guard of `table` in `backwards` is `let`-bound".to_string()
            ),
            (
                18,
                "guard of `table` in `held_across_recv` is `let`-bound".to_string()
            ),
        ]
    );
    assert_eq!(
        report.findings[2].chain,
        vec![format!("held_across_recv ({path}:17)")]
    );
}

#[test]
fn allow_directives_suppress_every_family() {
    let src = include_str!("fixtures/allowed_clean.rs");
    // Same violation shapes as the other fixtures, each covered by an
    // allow / allow-file directive — and in full panic-freedom scope.
    let path = "crates/he/src/allowed_fixture.rs";
    assert_eq!(rules_and_lines(path, src), vec![]);
    assert_eq!(workspace(&[(path, src)]).findings, vec![]);
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

fn workspace(inputs: &[(&str, &str)]) -> flcheck::report::Report {
    let owned: Vec<(String, String)> = inputs
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    flcheck::check_workspace(&owned)
}

/// `(line, message up to its first `:`)` of every `lock-leaf` finding.
fn leaf_lines(report: &flcheck::report::Report) -> Vec<(u32, String)> {
    report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-leaf")
        .map(|f| {
            (
                f.line,
                f.message.split(':').next().unwrap_or("").to_string(),
            )
        })
        .collect()
}

#[test]
fn lock_cycle_fixture_reports_each_bound_guard_of_the_cycle_and_hotpath() {
    let src = include_str!("fixtures/lock_cycle.rs");
    let path = "crates/gpu-sim/src/lockgraph_fixture.rs";
    let report = workspace(&[(path, src)]);
    // The table/stats cycle needs a second guard held while the first is
    // taken; the hot-path chain needs a guard held across `helper`. Each
    // starts from a bound guard, so every guard of the three fns fires.
    assert_eq!(
        leaf_lines(&report),
        vec![
            (10, "guard of `table` in `ab` is `let`-bound".to_string()),
            (11, "guard of `stats` in `ab` is `let`-bound".to_string()),
            (15, "guard of `stats` in `ba` is `let`-bound".to_string()),
            (16, "guard of `table` in `ba` is `let`-bound".to_string()),
            (20, "guard of `stats` in `hot` is `let`-bound".to_string()),
        ]
    );
    assert_eq!(report.findings.len(), 5);
    assert_eq!(report.findings[4].chain, vec![format!("hot ({path}:19)")]);
}

#[test]
fn steal_fixture_reports_park_and_double_acquire() {
    let src = include_str!("fixtures/steal_violations.rs");
    let path = "crates/shims/rayon/src/steal_fixture.rs";
    let report = workspace(&[(path, src)]);
    // Parking with the deque held, and stealing from a victim's deque
    // while holding one's own, both need a bound guard.
    assert_eq!(
        leaf_lines(&report),
        vec![
            (
                5,
                "guard of `deques` in `bad_park` is `let`-bound".to_string()
            ),
            (
                10,
                "guard of `deques` in `bad_steal` is `let`-bound".to_string()
            ),
            (
                11,
                "guard of `deques` in `bad_steal` is `let`-bound".to_string()
            ),
        ]
    );
    assert_eq!(report.findings.len(), 3);
}

#[test]
fn guard_escape_fixture_reports_every_escape_including_the_return() {
    let src = include_str!("fixtures/guard_escape.rs");
    let path = "crates/core/src/escape_fixture.rs";
    let report = workspace(&[(path, src)]);
    // A guard that escapes its statement is a finding however it goes;
    // `acquire` returning it is one too (only a fn named `lock` may).
    assert_eq!(
        leaf_lines(&report),
        vec![
            (11, "guard of `inner` in `stash` is `let`-bound".to_string()),
            (
                15,
                "guard of `inner` in `hand_off` is `let`-bound".to_string()
            ),
            (
                19,
                "guard of `inner` in `leak_temp` is passed by value to `watch`".to_string()
            ),
            (22, "guard of `inner` in `acquire` is returned".to_string()),
            (
                25,
                "guard of `inner` in `stash_short` is `let`-bound".to_string()
            ),
        ]
    );
    assert_eq!(report.findings.len(), 5);
    assert_eq!(
        report.findings[2].chain,
        vec![format!("leak_temp ({path}:18)")]
    );
}

#[test]
fn width_fixture_reports_lossy_narrows_with_sink_chains() {
    let src = include_str!("fixtures/width_violations.rs");
    let path = "crates/he/src/width_fixture.rs";
    let report = workspace(&[(path, src)]);
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect();
    // `high_half` (narrow directive), `slots` (widen-ok), `fixed` (pure
    // literal), and the widening `n as usize` must all stay silent.
    assert_eq!(
        got,
        vec![
            ("lossy-narrow".to_string(), 5),
            ("lossy-narrow".to_string(), 14),
            ("lossy-narrow".to_string(), 18),
        ]
    );

    // Case (a): a cast inside the sink's own computation.
    let inside = &report.findings[0];
    assert!(
        inside.message.contains("`as u32`")
            && inside.message.contains("op-cost accounting")
            && inside.message.contains("`kernel_op_estimate`"),
        "unexpected message: {}",
        inside.message
    );
    assert_eq!(
        inside.chain,
        vec![
            format!("cast `mac_per_limb ( limbs ) as u32` ({path}:5)"),
            format!("kernel_op_estimate ({path}:4)"),
        ]
    );

    // Case (b): a cast flowing as an argument straight into the sink.
    let direct_arg = &report.findings[1];
    assert!(
        direct_arg
            .message
            .contains("in `plan` passed into `kernel_op_estimate`"),
        "unexpected message: {}",
        direct_arg.message
    );
    assert_eq!(
        direct_arg.chain,
        vec![
            format!("cast `terms as u32` ({path}:14)"),
            format!("plan ({path}:13)"),
            format!("kernel_op_estimate ({path}:4)"),
        ]
    );

    // Case (b), transitively: the callee still reaches the sink.
    let transitive = &report.findings[2];
    assert!(
        transitive
            .message
            .contains("in `stage` passed into `tally`"),
        "unexpected message: {}",
        transitive.message
    );
    assert_eq!(
        transitive.chain,
        vec![
            format!("cast `limbs as u16` ({path}:18)"),
            format!("stage ({path}:17)"),
            format!("tally ({path}:21)"),
            format!("kernel_op_estimate ({path}:4)"),
        ]
    );
}

#[test]
fn workspace_report_is_deterministic_across_input_order() {
    let ct = include_str!("fixtures/ct_violations.rs");
    let cycle = include_str!("fixtures/lock_cycle.rs");
    let width = include_str!("fixtures/width_violations.rs");
    let fwd = workspace(&[
        ("crates/mpint/src/ct_fixture.rs", ct),
        ("crates/gpu-sim/src/lockgraph_fixture.rs", cycle),
        ("crates/he/src/width_fixture.rs", width),
    ]);
    let rev = workspace(&[
        ("crates/he/src/width_fixture.rs", width),
        ("crates/gpu-sim/src/lockgraph_fixture.rs", cycle),
        ("crates/mpint/src/ct_fixture.rs", ct),
    ]);
    assert_eq!(fwd.render_json(), rev.render_json());
    assert!(fwd.render_json().contains("\"schema\": 8"));
    // Every rule in the registry is enumerated in the summary, found
    // or not — schema-8 consumers key on the full table.
    assert_eq!(flcheck::registry::RULES.len(), 7);
    for rule in flcheck::registry::ids() {
        assert!(
            fwd.render_json().contains(&format!("\"{rule}\"")),
            "summary must enumerate {rule}"
        );
    }
}
