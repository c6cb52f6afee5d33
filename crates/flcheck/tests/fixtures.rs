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
fn ld_fixture_fires_wait_per_file_and_cycle_via_the_workspace() {
    let src = include_str!("fixtures/ld_violations.rs");
    // Per-file analysis: only ld-wait remains (the old ld-order rule is
    // subsumed by the whole-workspace lock-cycle pass).
    let got = rules_and_lines("src/ld_fixture.rs", src);
    assert_eq!(got, vec![("ld-wait".to_string(), 19)]);

    // Workspace analysis: the declared `table < counters` order plus the
    // observed inversion in `backwards` is a 2-cycle.
    let path = "src/ld_fixture.rs";
    let report = workspace(&[(path, src)]);
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![("lock-cycle".to_string(), 13), ("ld-wait".to_string(), 19),]
    );
    let cycle = &report.findings[0];
    assert!(
        cycle.message.contains(
            "lock acquisition cycle workspace::counters -> workspace::table -> workspace::counters"
        ),
        "unexpected message: {}",
        cycle.message
    );
    assert_eq!(
        cycle.chain,
        vec![
            format!(
                "workspace::counters -> workspace::table \
                 ({path}:13, `table` acquired while `counters` held in `backwards`)"
            ),
            format!(
                "workspace::table -> workspace::counters \
                 ({path}:3, declared lock-order `table < counters`)"
            ),
        ]
    );
}

#[test]
fn allow_directives_suppress_every_family() {
    let src = include_str!("fixtures/allowed_clean.rs");
    // Same violation shapes as the other fixtures, each covered by an
    // allow / allow-file directive — and in full panic-freedom scope.
    assert_eq!(
        rules_and_lines("crates/he/src/allowed_fixture.rs", src),
        vec![]
    );
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

#[test]
fn taint_fixture_reports_interprocedural_leak_with_chain() {
    let src = include_str!("fixtures/taint_leak.rs");
    let path = "crates/mpint/src/taint_fixture.rs";
    let report = workspace(&[(path, src)]);
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect();
    let want: Vec<(String, u32)> = [
        ("ct-branch", 13),  // `if` inside the ct helper
        ("ct-compare", 13), // `==` in its predicate
        ("ct-taint", 13),   // secret `key` reached the branch via `whiten`
        ("ct-return", 14),  // early exit inside the ct helper
    ]
    .into_iter()
    .map(|(r, l)| (r.to_string(), l))
    .collect();
    assert_eq!(got, want);

    let taint = report
        .findings
        .iter()
        .find(|f| f.rule == "ct-taint")
        .expect("ct-taint finding");
    assert_eq!(
        taint.chain,
        vec![format!("seal ({path}:6)"), format!("whiten ({path}:12)")],
        "provenance chain must name the seed fn and the leaking callee"
    );
    assert!(
        taint.message.contains("`x`") && taint.message.contains("`whiten`"),
        "unexpected message: {}",
        taint.message
    );
}

#[test]
fn lock_cycle_fixture_reports_cycle_and_hotpath_with_chains() {
    let src = include_str!("fixtures/lock_cycle.rs");
    let path = "crates/gpu-sim/src/lockgraph_fixture.rs";
    let report = workspace(&[(path, src)]);
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("lock-cycle".to_string(), 16),
            ("lock-across-hotpath".to_string(), 21),
        ]
    );

    let cycle = &report.findings[0];
    assert!(
        cycle
            .message
            .contains("lock acquisition cycle gpu-sim::stats -> gpu-sim::table -> gpu-sim::stats"),
        "unexpected message: {}",
        cycle.message
    );
    assert_eq!(
        cycle.chain,
        vec![
            format!(
                "gpu-sim::stats -> gpu-sim::table \
                 ({path}:16, `table` acquired while `stats` held in `ba`)"
            ),
            format!(
                "gpu-sim::table -> gpu-sim::stats \
                 ({path}:11, `stats` acquired while `table` held in `ab`)"
            ),
        ]
    );

    let hot = &report.findings[1];
    assert!(
        hot.message.contains("`gpu-sim::stats` held in `hot`")
            && hot.message.contains("reaches hot-path kernel `mont_mul`"),
        "unexpected message: {}",
        hot.message
    );
    assert_eq!(
        hot.chain,
        vec![
            format!("hot ({path}:19)"),
            format!("helper ({path}:25)"),
            format!("mont_mul ({path}:29)"),
        ]
    );
}

#[test]
fn steal_fixture_reports_park_and_double_acquire() {
    let src = include_str!("fixtures/steal_violations.rs");
    let path = "crates/shims/rayon/src/steal_fixture.rs";
    let report = workspace(&[(path, src)]);
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect();
    assert_eq!(
        got,
        vec![
            ("guard-across-steal".to_string(), 6),
            ("guard-across-steal".to_string(), 11),
        ]
    );
    let park = &report.findings[0];
    assert!(
        park.message
            .contains("deque guard `deques` held in `bad_park` across blocking `park`"),
        "unexpected message: {}",
        park.message
    );
    assert_eq!(
        park.chain,
        vec![format!("bad_park ({path}:4)"), format!("park ({path}:6)"),]
    );
    let steal = &report.findings[1];
    assert!(
        steal
            .message
            .contains("worker in `bad_steal` steals from a deque"),
        "unexpected message: {}",
        steal.message
    );
    assert_eq!(steal.chain, vec![format!("bad_steal ({path}:9)")]);
}

#[test]
fn nondet_result_fixture_reports_flows_with_chains() {
    let src = include_str!("fixtures/nondet_result.rs");
    let path = "crates/core/src/nondet_fixture.rs";
    let report = workspace(&[(path, src)]);
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect();
    // The raw string, the nested block comment, and the deterministic
    // probes (`contains_key`, `len`) in `inert` must all stay silent; the
    // `det-absorb` stopwatch's own `Instant::now` is absorbed.
    assert_eq!(
        got,
        vec![
            ("nondet-in-result".to_string(), 4),
            ("nondet-in-result".to_string(), 13),
            ("nondet-in-result".to_string(), 25),
        ]
    );

    // A pure callee's chain walks its nearest sink-feeding caller down to
    // the source fn, then ends at that caller's sink.
    let hash = &report.findings[0];
    assert!(
        hash.message
            .contains("hash-order iteration `.values()` on `m` in `summarize`")
            && hash.message.contains("det-sink `render`"),
        "unexpected message: {}",
        hash.message
    );
    assert_eq!(
        hash.chain,
        vec![
            format!("report ({path}:12)"),
            format!("summarize ({path}:3)"),
            format!("render ({path}:8)"),
        ]
    );

    // An ancestor's chain walks straight down to the sink.
    let clock = &report.findings[1];
    assert!(
        clock
            .message
            .contains("wall-clock read `Instant::now()` in `report`"),
        "unexpected message: {}",
        clock.message
    );
    assert_eq!(
        clock.chain,
        vec![format!("report ({path}:12)"), format!("render ({path}:8)")]
    );

    // `nondet(..)` markers anchor at the fn declaration line.
    let declared = &report.findings[2];
    assert!(
        declared
            .message
            .contains("declared nondet source (reads the interconnect topology) in `topology`"),
        "unexpected message: {}",
        declared.message
    );
    assert_eq!(
        declared.chain,
        vec![
            format!("inert ({path}:29)"),
            format!("topology ({path}:25)"),
            format!("render ({path}:8)"),
        ]
    );
}

#[test]
fn guard_escape_fixture_reports_unfollowable_escapes_only() {
    let src = include_str!("fixtures/guard_escape.rs");
    let path = "crates/core/src/escape_fixture.rs";
    let report = workspace(&[(path, src)]);
    let got: Vec<(String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule.clone(), f.line))
        .collect();
    // `acquire` returns its guard and is *followed*, not flagged — only
    // the four unfollowable escapes fire.
    assert_eq!(
        got,
        vec![
            ("guard-escape".to_string(), 12),
            ("guard-escape".to_string(), 16),
            ("guard-escape".to_string(), 19),
            ("guard-escape".to_string(), 26),
        ]
    );

    let stored = &report.findings[0];
    assert!(
        stored
            .message
            .contains("guard `g` (lock `inner`) stored in struct field `guard` in `stash`"),
        "unexpected message: {}",
        stored.message
    );
    assert_eq!(stored.chain, vec![format!("stash ({path}:10)")]);

    let passed = &report.findings[1];
    assert!(
        passed
            .message
            .contains("guard `g` (lock `inner`) passed by value to `consume` in `hand_off`"),
        "unexpected message: {}",
        passed.message
    );
    assert_eq!(passed.chain, vec![format!("hand_off ({path}:14)")]);

    let temp = &report.findings[2];
    assert!(
        temp.message
            .contains("temporary guard of lock `inner` passed by value to `watch` in `leak_temp`"),
        "unexpected message: {}",
        temp.message
    );
    assert_eq!(temp.chain, vec![format!("leak_temp ({path}:18)")]);

    let short = &report.findings[3];
    assert!(
        short.message.contains(
            "guard `guard` (lock `inner`) stored in struct field `guard` \
             (init shorthand) in `stash_short`"
        ),
        "unexpected message: {}",
        short.message
    );
    assert_eq!(short.chain, vec![format!("stash_short ({path}:24)")]);
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
    let taint = include_str!("fixtures/taint_leak.rs");
    let cycle = include_str!("fixtures/lock_cycle.rs");
    let width = include_str!("fixtures/width_violations.rs");
    let fwd = workspace(&[
        ("crates/mpint/src/taint_fixture.rs", taint),
        ("crates/gpu-sim/src/lockgraph_fixture.rs", cycle),
        ("crates/he/src/width_fixture.rs", width),
    ]);
    let rev = workspace(&[
        ("crates/he/src/width_fixture.rs", width),
        ("crates/gpu-sim/src/lockgraph_fixture.rs", cycle),
        ("crates/mpint/src/taint_fixture.rs", taint),
    ]);
    assert_eq!(fwd.render_json(), rev.render_json());
    assert!(fwd.render_json().contains("\"schema\": 8"));
    // Every rule in the registry is enumerated in the summary, found
    // or not — schema-8 consumers key on the full table.
    assert_eq!(flcheck::registry::RULES.len(), 13);
    for rule in flcheck::registry::ids() {
        assert!(
            fwd.render_json().contains(&format!("\"{rule}\"")),
            "summary must enumerate {rule}"
        );
    }
}
