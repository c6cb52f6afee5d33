//! Consistency between the paper's closed-form analysis (Sec. V-B), the
//! codec implementation, the GPU execution model, and the measured
//! behaviour of the backends — plus the tree at zero flcheck findings
//! with its two ratchets, the rule that `results/` holds exactly what
//! `run_harness.sh` regenerates, and the float-seconds / integer-counts
//! split the charging layers rely on.

use std::collections::{BTreeMap, BTreeSet};

use fl::{Accelerator, BackendKind};
use flbooster_core::analysis;
use flcheck::{
    collect_files, lexer, lexer::TokKind, rules::RULES, source::SourceFile, PANIC_FREEDOM_CRATES,
};
use gpu_sim::{Device, DeviceConfig};
use he::paillier::PaillierKeyPair;
use he::GpuHe;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn keys(bits: u32) -> PaillierKeyPair {
    PaillierKeyPair::generate(&mut ChaCha8Rng::seed_from_u64(0xA0A0 ^ bits as u64), bits).unwrap()
}

#[test]
fn measured_compression_matches_eq11_within_headroom_slot() {
    // The implementation reserves one slot per word (packed value must
    // stay below n); Eq. 11 is the theoretical bound.
    for key_bits in [128u32, 256] {
        let acc = Accelerator::new(BackendKind::FlBooster, keys(key_bits), 4).unwrap();
        let n = 200usize;
        let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.004) - 0.4).collect();
        let enc = acc.encrypt(&values, 1).unwrap();
        let measured = n as f64 / enc.ciphertext_count() as f64;
        let r_bits = acc.codec().quantizer().config().r_bits;
        let bound = analysis::compression_ratio(n as u64, key_bits, r_bits, 4);
        assert!(
            measured <= bound + 1e-9,
            "measured {measured} exceeds Eq.11 {bound}"
        );
        // Within one slot of the bound (plus ceiling slack on the word
        // count).
        let slots = analysis::slots_per_word(key_bits, r_bits, 4) as f64;
        assert!(
            measured >= bound * (slots - 1.0) / slots * 0.95,
            "measured {measured} too far below Eq.11 {bound}"
        );
    }
}

#[test]
fn ac_bc_equals_he_operation_reduction() {
    // Eq. 13: the BC acceleration on HE operations equals the compression
    // ratio — verified against actual ciphertext counts of the two
    // backends.
    let shared = keys(256);
    let n = 180usize;
    let values: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.05).sin() * 0.5).collect();
    let with_bc = Accelerator::new(BackendKind::FlBooster, shared.clone(), 4).unwrap();
    let without = Accelerator::new(BackendKind::WithoutBc, shared, 4).unwrap();
    let e1 = with_bc.encrypt(&values, 1).unwrap();
    let e2 = without.encrypt(&values, 1).unwrap();
    let measured_ac = e2.ciphertext_count() as f64 / e1.ciphertext_count() as f64;
    let measured_ratio = n as f64 / e1.ciphertext_count() as f64;
    assert!((measured_ac - measured_ratio).abs() < 1e-9);
}

#[test]
fn ghe_model_and_simulator_agree_on_direction() {
    // Eq. 10 says GPU acceleration grows with batch size; the simulator
    // must agree.
    let model = analysis::GheModel {
        beta_cpu: 2.7e-3,
        beta_transfer: 6.25e-11,
        beta_gpu: 1.9,
        t_max: 82 * 1536,
    };
    let small = model.ac_ghe(64, 64 * 32, 64 * 2048);
    let large = model.ac_ghe(100_000, 100_000 * 32, 100_000u64 * 2048);
    assert!(large > small, "Eq.10: bigger batches amortize better");

    // Simulator: per-item kernel seconds shrink as the batch grows.
    let device = Device::new(DeviceConfig::rtx3090());
    let spec = GpuHe::kernel_spec("enc", 1024, true);
    let per_item = |items: usize| {
        let data: Vec<u32> = (0..items as u32).collect();
        let (_, report) = device.launch(&spec, &data, 0, 0, |_, _| {
            gpu_sim::ItemOutcome::new((), 1_000_000)
        });
        report.sim_kernel_seconds / items as f64
    };
    assert!(
        per_item(10_000) < per_item(16),
        "simulator must show batch amortization"
    );
}

#[test]
fn utilization_decreases_with_key_size_for_both_gpu_backends() {
    // The Fig. 6 trend holds in both the plan (analysis) and the measured
    // launches.
    let shared128 = keys(128);
    for kind in [BackendKind::Haflo, BackendKind::FlBooster] {
        let device_check = Device::new(DeviceConfig::rtx3090());
        let mut last_occ = f64::INFINITY;
        for key_bits in [1024u32, 2048, 4096] {
            let spec = GpuHe::kernel_spec("enc", key_bits, true);
            let plan = device_check
                .manager()
                .plan(device_check.config(), &spec, 100_000);
            assert!(plan.occupancy <= last_occ + 1e-12, "{kind:?} at {key_bits}");
            last_occ = plan.occupancy;
        }
        let _ = &shared128;
    }
}

#[test]
fn flbooster_manager_beats_haflo_fixed_blocks_at_large_keys() {
    // Fig. 6's gap comes from the resource manager: at large key sizes
    // the register demand per thread grows and a fixed 256-thread block
    // wastes occupancy, while the adaptive manager picks a better shape.
    use gpu_sim::resource::ResourceManager;
    let cfg = DeviceConfig::rtx3090();
    let adaptive = ResourceManager::new();
    let fixed = ResourceManager::fixed(256);
    let mut gap_seen = false;
    for key_bits in [1024u32, 2048, 4096] {
        let spec = GpuHe::kernel_spec("enc", key_bits, true);
        let a = adaptive.plan(&cfg, &spec, 1_000_000);
        let f = fixed.plan(&cfg, &spec, 1_000_000);
        assert!(
            a.occupancy >= f.occupancy - 1e-12,
            "adaptive {} < fixed {} at {key_bits}",
            a.occupancy,
            f.occupancy
        );
        if a.occupancy > f.occupancy + 1e-9 {
            gap_seen = true;
        }
    }
    assert!(gap_seen, "the manager must win strictly at some key size");

    // Measured, like-for-like (same ciphertext count): the adaptive
    // backend's utilization is never below the fixed-block one.
    let shared = keys(128);
    let values: Vec<f64> = (0..4096).map(|i| ((i as f64) * 0.01).sin() * 0.9).collect();
    let mut utils = Vec::new();
    for kind in [BackendKind::Haflo, BackendKind::WithoutBc] {
        let acc = Accelerator::new(kind, shared.clone(), 4).unwrap();
        acc.encrypt(&values, 3).unwrap();
        utils.push(acc.device_stats().unwrap().mean_sm_utilization());
    }
    assert!(
        utils[1] >= utils[0] - 1e-9,
        "adaptive utilization {} must be >= fixed-block {}",
        utils[1],
        utils[0]
    );
}

#[test]
fn total_acceleration_is_product_of_modules() {
    // Eq. 14 sanity over the real backends: FLBooster's advantage over
    // FATE decomposes into the GHE win (w/o BC vs FATE-like CPU) times
    // the BC win (FLBooster vs w/o BC), in HE seconds.
    let shared = keys(256);
    let n = 240usize;
    let values: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.02).cos() * 0.6).collect();
    let he_secs = |kind: BackendKind| {
        let acc = Accelerator::new(kind, shared.clone(), 4).unwrap();
        acc.encrypt(&values, 1).unwrap();
        acc.timing().he_seconds
    };
    let fate = he_secs(BackendKind::Fate);
    let wo_bc = he_secs(BackendKind::WithoutBc);
    let flb = he_secs(BackendKind::FlBooster);
    let ac_ghe = fate / wo_bc;
    let ac_bc = wo_bc / flb;
    let ac_total = fate / flb;
    assert!((ac_total - ac_ghe * ac_bc).abs() / ac_total < 1e-9);
    assert!(ac_ghe > 1.0 && ac_bc > 1.0);
}

/// The `key = value` lines of one `[header]` table of a manifest.
fn toml_table<'a>(manifest: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect()
}

#[test]
fn panic_freedom_crates_opt_into_the_clippy_table() {
    // Panic freedom, width and the bans of `crates/clippy.toml` are
    // clippy's: the root table denies the ten lints and a stale `#[expect]`, and
    // exactly the panic-freedom crates and flcheck inherit it — a crate that
    // drops `[lints] workspace = true` silently leaves the gate.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read =
        |p: &std::path::Path| std::fs::read_to_string(p.join("Cargo.toml")).expect("manifest");
    let manifest = read(root);
    let mut denied: Vec<&str> = toml_table(&manifest, "[workspace.lints.clippy]")
        .into_iter()
        .filter(|&(_, level)| level == "\"deny\"")
        .map(|(lint, _)| lint)
        .collect();
    denied.sort_unstable();
    assert_eq!(
        denied,
        [
            "cast_possible_truncation",
            "disallowed_methods",
            "disallowed_types",
            "expect_used",
            "indexing_slicing",
            "panic",
            "todo",
            "unimplemented",
            "unreachable",
            "unwrap_used"
        ]
    );
    assert_eq!(
        toml_table(&manifest, "[workspace.lints.rust]"),
        [("unfulfilled_lint_expectations", "\"deny\"")]
    );
    let mut opted = BTreeSet::new();
    let mut dirs = vec![root.to_path_buf()];
    for parent in ["crates", "crates/shims"] {
        for entry in std::fs::read_dir(root.join(parent)).expect("crate dirs") {
            dirs.push(entry.expect("dir entry").path());
        }
    }
    for dir in dirs.iter().filter(|d| d.join("Cargo.toml").is_file()) {
        if toml_table(&read(dir), "[lints]").contains(&("workspace", "true")) {
            let name = dir.file_name().expect("crate dir").to_string_lossy();
            opted.insert(name.into_owned());
        }
    }
    let want: BTreeSet<String> = PANIC_FREEDOM_CRATES
        .iter()
        .chain(&["flcheck"])
        .map(|c| c.to_string())
        .collect();
    assert_eq!(opted, want);
}

#[test]
fn clippy_toml_bans_hash_order_clocks_widths_drives_and_unchecked_ops() {
    // Determinism, the banned calls, std's guard-holding locks and reads
    // of key material are clippy's `disallowed-types` and
    // `disallowed-methods`, read for every crate under `crates/`. Tier-1
    // does not run clippy, so a dropped entry, or `crates/bench` dropping
    // its opt-in, would silently reopen what it closed.
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let config = std::fs::read_to_string(crates.join("clippy.toml")).expect("crates/clippy.toml");
    let mut lists: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in config.lines().map(str::trim) {
        if let Some((list, _)) = line.split_once(" = [") {
            lists.push((list, Vec::new()));
        } else if let (Some((_, paths)), Some((_, rest))) =
            (lists.last_mut(), line.split_once("path = \""))
        {
            assert!(line.contains("reason = \""), "no reason: {line}");
            paths.push(rest.split('"').next().expect("closing quote"));
        }
    }
    assert_eq!(
        lists,
        [
            (
                "disallowed-types",
                vec![
                    "std::collections::HashMap",
                    "std::collections::HashSet",
                    "std::time::Instant",
                    "std::time::SystemTime",
                    "std::sync::Mutex",
                    "std::sync::RwLock",
                ]
            ),
            (
                "disallowed-methods",
                vec![
                    "std::thread::current",
                    "std::thread::available_parallelism",
                    "rayon::current_num_threads",
                    "rayon::ThreadPool::current_num_threads",
                    "rayon::iter::IntoParallelRefIterator::par_iter",
                    "rayon::iter::IntoParallelIterator::into_par_iter",
                    "he::paillier::PaillierPublicKey::add",
                    "he::paillier::PaillierPublicKey::scalar_mul",
                    "mpint::ct::Secret::expose",
                ]
            ),
        ]
    );
    let bench = std::fs::read_to_string(crates.join("bench/Cargo.toml")).expect("bench manifest");
    assert_eq!(
        toml_table(&bench, "[lints.clippy]"),
        [
            ("cast_possible_truncation", "\"deny\""),
            ("disallowed_methods", "\"deny\""),
            ("disallowed_types", "\"deny\"")
        ]
    );
}

#[test]
fn the_tree_has_no_flcheck_findings() {
    // The two checks neither rustc nor clippy can make: no branch, early
    // return, short circuit or comparison in a `ct-fn`, and no release
    // `assert!` in the library crates' non-test code. Every scanned file,
    // every directive honoured.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = flcheck::run(root).expect("workspace scan");
    let listed: Vec<String> = findings
        .iter()
        .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message))
        .collect();
    assert!(
        findings.is_empty(),
        "{} flcheck finding(s):\n{}",
        findings.len(),
        listed.join("\n")
    );
}

#[test]
fn every_allow_names_a_registered_rule() {
    // The analyzer ignores an allow for a rule it does not know, so an
    // allow left behind by a retired rule would sit in the tree unnoticed.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut stale = Vec::new();
    for path in collect_files(root).expect("workspace walk") {
        let rel = path
            .strip_prefix(root)
            .expect("under root")
            .display()
            .to_string();
        let file = SourceFile::parse(&rel, &std::fs::read_to_string(&path).expect("read"));
        let lines = file
            .allow_lines
            .iter()
            .flat_map(|(&l, rules)| rules.iter().map(move |r| (l, r)));
        let whole = file.allow_file.iter().map(|r| (0, r));
        for (line, rule) in lines.chain(whole) {
            if !RULES.contains(&rule.as_str()) {
                stale.push(format!("`{rule}` at {rel}:{line}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "allows naming no registered rule: {stale:#?}"
    );
}

/// Every directive in the scanned tree, as its kind and `file:line`. A
/// comment is a directive when it starts, after doc-comment markers, with
/// the tool's name and a colon, as the parser anchors it.
fn flcheck_directives() -> Vec<(String, String)> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for path in collect_files(root).expect("workspace walk") {
        let src = std::fs::read_to_string(&path).expect("read");
        for c in lexer::lex(&src).comments {
            let text = c.text.trim_start_matches(['!', '/', ' ', '\t']);
            let Some(body) = text
                .strip_prefix("flcheck")
                .and_then(|t| t.strip_prefix(':'))
            else {
                continue;
            };
            let kind: String = body
                .trim_start()
                .chars()
                .take_while(|ch| ch.is_ascii_lowercase() || *ch == '-')
                .collect();
            found.push((kind, format!("{}:{}", path.display(), c.line)));
        }
    }
    found
}

#[test]
fn every_directive_is_a_known_kind() {
    // The parser drops a directive of a kind it does not know, so one left
    // behind by a retired pass would sit in the tree unnoticed. The kinds
    // are the grammar in the analyzer's `source.rs`.
    const KINDS: &[&str] = &["allow", "allow-file", "ct-fn"];
    let unknown: Vec<String> = flcheck_directives()
        .into_iter()
        .filter(|(kind, _)| !KINDS.contains(&kind.as_str()))
        .map(|(kind, at)| format!("`{kind}` at {at}"))
        .collect();
    assert!(
        unknown.is_empty(),
        "directives of no known kind: {unknown:#?}"
    );
}

#[test]
fn flcheck_directives_may_only_fall() {
    // The tree stays at zero findings partly by annotation (22 `ct-fn`
    // marks, 19 `pf-assert` allows), so the count of directives may fall
    // but never grow: lower this constant in the change that removes one.
    const DIRECTIVES: usize = 41;
    let n = flcheck_directives().len();
    assert!(
        n <= DIRECTIVES,
        "{n} flcheck directives exceed the ratchet DIRECTIVES = {DIRECTIVES}"
    );
}

#[test]
fn flcheck_non_test_lines_may_only_fall() {
    // The analyzer is scaffolding, not the product: its non-test lines
    // (each source file's lines before its first `#[cfg(test)]`) may fall
    // but never grow. Lower this constant in the change that removes some.
    const LINES: usize = 898;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/flcheck/src");
    let mut n = 0;
    for path in collect_files(&dir).expect("crate walk") {
        let src = std::fs::read_to_string(&path).expect("read");
        n += src
            .lines()
            .take_while(|l| !l.starts_with("#[cfg(test)]"))
            .count();
    }
    assert!(
        n <= LINES,
        "flcheck has {n} non-test lines, over the ratchet LINES = {LINES}"
    );
}

#[test]
fn results_inventory_is_what_the_harness_writes() {
    // DESIGN §3: a file under `results/` is regenerated (or read) by a
    // step of `run_harness.sh`, whose full tier ends in a whole-directory
    // `git diff`. An orphan nobody regenerates, or a writer whose output
    // was never committed, breaks that gate's coverage — so the set of
    // names the script's executable lines mention must be the directory.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let script = std::fs::read_to_string(root.join("run_harness.sh")).expect("run_harness.sh");
    // The paper binary writes one `<view>.txt` per entry of its `VIEWS`
    // table: the table's string literals are the file names.
    let paper =
        std::fs::read_to_string(root.join("crates/bench/src/bin/paper.rs")).expect("paper.rs");
    let views = paper
        .split_once("const VIEWS")
        .and_then(|(_, rest)| rest.split_once("];"))
        .expect("paper.rs declares `const VIEWS: [..] = [..];`")
        .0;
    let mut wired = BTreeSet::new();
    for line in script.lines().map(str::trim_start) {
        if line.starts_with('#') {
            continue;
        }
        if line
            .split_whitespace()
            .any(|w| w == "./target/release/paper")
        {
            wired.extend(
                views
                    .split('"')
                    .skip(1)
                    .step_by(2)
                    .map(|v| format!("{v}.txt")),
            );
        }
        for prefix in ["$R/", "results/"] {
            for (at, _) in line.match_indices(prefix) {
                let name: String = line[at + prefix.len()..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
                    .collect();
                if !name.is_empty() {
                    wired.insert(name);
                }
            }
        }
    }
    let present: BTreeSet<String> = std::fs::read_dir(root.join("results"))
        .expect("results/")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .into_string()
                .expect("utf-8")
        })
        .collect();
    assert_eq!(
        present, wired,
        "left: files under results/; right: files run_harness.sh writes or reads"
    );
}

#[test]
fn he_runs_in_one_place_in_fl() {
    // A model reaches the HE engine only through `fl::backend::Accelerator`,
    // whose entry points draw on the blinding pool where the backend has
    // one and return the call's timing (`#[must_use]`). So outside
    // `backend.rs` no non-test code of `crates/fl/src` names an HE backend
    // or the pool, nor calls a batched HE op or a per-ciphertext primitive
    // under it. Lexed: a call is `.name(` or `::name(`.
    const TYPES: &[&str] = &["HeBackend", "CpuHe", "GpuHe", "ObfuscatorPool"];
    const CALLS: &[&str] = &[
        "encrypt_batch",
        "decrypt_batch",
        "add_batch",
        "sum_batches",
        "sum_batches_each",
        "fold_groups",
        "fold_packed",
        "fold_packed_decrypt",
        "weighted_aggregate",
        "weighted_aggregate_each",
        "encrypt_with_obfuscator",
        "precompute_obfuscator",
        "decrypt_crt",
        "checked_sum",
        "checked_pack",
        "checked_scalar_mul",
    ];
    let is_he_call = |name: &str| {
        CALLS.contains(&name) || (name.starts_with("weighted_sum") && !name.ends_with("_estimate"))
    };
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/fl/src");
    let files = collect_files(&src).expect("crate walk");
    assert!(files.len() >= 10, "fl: {} files", files.len());
    let mut found = Vec::new();
    for path in files.iter().filter(|p| !p.ends_with("backend.rs")) {
        let rel = path.display().to_string();
        let file = SourceFile::parse(&rel, &std::fs::read_to_string(path).expect("read"));
        let toks = &file.tokens;
        for i in (1..toks.len().saturating_sub(1)).filter(|&i| !file.in_test_region(i)) {
            let t = &toks[i];
            let named = TYPES.iter().any(|ty| t.is_ident(ty));
            let called = t.kind == TokKind::Ident
                && is_he_call(&t.text)
                && (toks[i - 1].is_op(".") || toks[i - 1].is_op("::"))
                && toks[i + 1].text == "(";
            if named || called {
                found.push(format!("`{}` at {rel}:{}", t.text, t.line));
            }
        }
    }
    assert!(
        found.is_empty(),
        "HE reached around the Accelerator: {found:#?}"
    );
}

#[test]
fn seconds_are_floats_and_counts_are_integers() {
    // The type split that stands in for the retired unit-flow pass: in the
    // charging layers a `*seconds` field or parameter is a float and a
    // byte/op/message count is an integer, so rustc rejects one where the
    // other is wanted (the `compile_fail,E0308` doctests on `EngineConfig::
    // with_straggler_timeout` and `Network::send`; the charge itself is
    // private to `fl::engine`, which `EpochBreakdown::charge_work`'s
    // `compile_fail,E0624` doctest shows). The one gap is `count as f64`; that
    // cast lives in exactly the three fns that multiply or divide it by a
    // `*_per_*` rate. Lexed, non-test code only.
    const INTS: &[&str] = &[
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ];
    const FLOATS: &[&str] = &["f32", "f64"];
    let is_seconds = |n: &str| n.ends_with("seconds");
    let is_count = |n: &str| {
        n == "ops"
            || ["bytes", "_ops", "_mac_count", "_mults", "messages"]
                .iter()
                .any(|s| n.ends_with(s))
    };
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut converters = BTreeSet::new();
    for krate in ["fl", "he", "gpu-sim"] {
        let dir = root.join("crates").join(krate).join("src");
        for path in collect_files(&dir).expect("crate walk") {
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .display()
                .to_string();
            let file = SourceFile::parse(&rel, &std::fs::read_to_string(&path).expect("read"));
            let toks = &file.tokens;
            let ident = |i: usize| toks.get(i).filter(|t| t.kind == TokKind::Ident);
            // What the `:` or `as` at `i` is about: the identifier before
            // it, or the callee when a call `f(..)` stands there.
            let subject = |i: usize| {
                let mut j = i.checked_sub(1)?;
                if toks[j].text == ")" {
                    let mut depth = 0i32;
                    let open = (0..=j).rev().find(|&o| {
                        match toks[o].kind {
                            TokKind::Close => depth += 1,
                            TokKind::Open => depth -= 1,
                            _ => {}
                        }
                        depth == 0
                    })?;
                    j = open.checked_sub(1)?;
                }
                ident(j).map(|t| t.text.as_str())
            };
            for i in (0..toks.len()).filter(|&i| !file.in_test_region(i)) {
                let Some(name) = subject(i) else {
                    continue;
                };
                let at = format!("{rel}:{}", toks[i].line);
                if toks[i].is_op(":") && !(2..=3).any(|b| i >= b && toks[i - b].is_ident("let")) {
                    // A field or parameter `name: Type`: look at the type
                    // up to the end of the declaration.
                    let ty = toks[i + 1..].iter().take_while(|t| {
                        !matches!(t.text.as_str(), "," | ";" | "=" | ")" | "{" | "}")
                    });
                    let banned = match (is_seconds(name), is_count(name)) {
                        (true, _) => INTS,
                        (_, true) => FLOATS,
                        _ => continue,
                    };
                    for t in ty {
                        assert!(
                            !banned.contains(&t.text.as_str()),
                            "`{name}: {}` at {at}",
                            t.text
                        );
                    }
                } else if toks[i].is_ident("as")
                    && is_count(name)
                    && ident(i + 1).is_some_and(|t| FLOATS.contains(&t.text.as_str()))
                {
                    let f = file
                        .fns
                        .iter()
                        .filter(|f| (f.body_start..f.body_end).contains(&i))
                        .min_by_key(|f| f.body_end - f.body_start)
                        .unwrap_or_else(|| panic!("`{name} as f64` outside a fn at {at}"));
                    // The rate: `* path.to.x_per_y` or `/ path.to.x_per_y`.
                    let by_rate = (f.body_start..f.body_end).any(|j| {
                        matches!(toks[j].text.as_str(), "*" | "/")
                            && toks[j + 1..]
                                .iter()
                                .take_while(|t| t.kind == TokKind::Ident || t.is_op("."))
                                .last()
                                .is_some_and(|t| t.text.contains("_per_"))
                    });
                    assert!(
                        by_rate,
                        "`{name} as f64` at {at}: `{}` applies no rate",
                        f.name
                    );
                    converters.insert(format!("{rel}::{}", f.name));
                }
            }
        }
    }
    let want = [
        "crates/fl/src/net.rs::message_seconds",
        "crates/gpu-sim/src/device.rs::account",
        "crates/he/src/ghe.rs::run",
    ];
    assert_eq!(converters, BTreeSet::from(want.map(String::from)));
}

#[test]
fn design_stays_under_its_line_cap() {
    // DESIGN.md is read whole; a change that adds a paragraph removes one.
    const CAP: usize = 900;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let n = design.lines().count();
    assert!(n <= CAP, "DESIGN.md has {n} lines, over the cap of {CAP}");
}

#[test]
fn drive_homes_are_the_design_list() {
    // DESIGN §11 numbers the fns where a pool drive may start. Each holds
    // exactly one `#[expect(clippy::disallowed_methods, reason = "drive
    // home: …")]`, and neither such an expectation nor a `par_iter` /
    // `into_par_iter` call sits anywhere else in the non-test code of any
    // crate under `crates/` but the vendored shims (the rayon shim is the
    // pool itself). A listed home `krate::…::name` is matched on its
    // crate and fn name; lexed, the enclosing fn is the innermost whose
    // body holds the token, else the next fn (an attribute on it).
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let listed: BTreeSet<(String, String)> = design
        .lines()
        .skip_while(|l| !l.starts_with("- **Where drives start**"))
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
        .filter_map(|l| {
            let (number, rest) = l.trim().split_once(". `")?;
            number.parse::<u32>().ok()?;
            let path = rest.split('`').next()?;
            let krate = path.split("::").next()?.replace('_', "-");
            Some((krate, path.rsplit("::").next()?.to_string()))
        })
        .collect();
    assert!(!listed.is_empty(), "DESIGN §11 lists no drive homes");

    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| {
            dir.file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    crates.sort();
    for krate in PANIC_FREEDOM_CRATES.iter().chain(&["bench", "flcheck"]) {
        assert!(crates.iter().any(|c| c == krate), "{krate} not walked");
    }
    let mut homes: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut strays = Vec::new();
    for krate in &crates {
        for path in collect_files(&root.join("crates").join(krate).join("src")).expect("walk") {
            let rel = path
                .strip_prefix(root)
                .expect("under root")
                .display()
                .to_string();
            let src = std::fs::read_to_string(&path).expect("read");
            let lines: Vec<&str> = src.lines().collect();
            let file = SourceFile::parse(&rel, &src);
            let toks = &file.tokens;
            let enclosing = |i: usize| {
                let f = file
                    .fns
                    .iter()
                    .filter(|f| (f.body_start..f.body_end).contains(&i))
                    .min_by_key(|f| f.body_end - f.body_start)
                    .or_else(|| {
                        let after = file.fns.iter().filter(|f| f.body_start > i);
                        after.min_by_key(|f| f.body_start)
                    });
                (
                    krate.to_string(),
                    f.map_or(String::new(), |f| f.name.clone()),
                )
            };
            for i in (2..toks.len()).filter(|&i| !file.in_test_region(i)) {
                let t = &toks[i];
                let line = lines.get(t.line as usize - 1).copied().unwrap_or_default();
                let home = t.kind == TokKind::Lit
                    && toks[i - 2].is_ident("reason")
                    && toks[i - 1].is_op("=")
                    && line.contains("\"drive home:");
                let drive = t.kind == TokKind::Ident
                    && ["par_iter", "into_par_iter"].contains(&t.text.as_str())
                    && toks[i - 1].is_op(".")
                    && toks.get(i + 1).is_some_and(|n| n.text == "(");
                if home {
                    *homes.entry(enclosing(i)).or_default() += 1;
                }
                if drive && !listed.contains(&enclosing(i)) {
                    strays.push(format!("{rel}:{}", t.line));
                }
            }
        }
    }
    let want: BTreeMap<(String, String), usize> = listed.into_iter().map(|h| (h, 1)).collect();
    assert_eq!(
        homes, want,
        "left: drive-home expectations per fn; right: DESIGN §11's list, one each"
    );
    assert!(
        strays.is_empty(),
        "pool drives outside the homes: {strays:?}"
    );
}
