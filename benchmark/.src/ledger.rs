//! The per-layer ledger of a traced run: every layer's public operations
//! timed from outside, at the key width and vector shape of the workload
//! that reports them. Each call sits in a span; the metrics are folded
//! from the spans afterwards.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::api::{self, Ct, GheOps, HeOps, ModelKind, MpintOps, Nat, Res, UnitCost};
use crate::host;
use crate::metrics::Report;
use crate::stats;
use crate::trace::{Counts, Tracer};
use crate::workloads::{self, Kind, Plan, Workload};

/// Fewest repetitions of any ledger operation: enough for the floor.
const MIN_REPS: u32 = 7;
const MAX_REPS: u32 = 400;
/// Dependent kernel calls inside one span of a nanosecond-scale kernel.
const KERNEL_CHAIN: u32 = 512;
/// Items in the `pool.speedup` batch.
const SPEEDUP_ITEMS: usize = 64;
/// Tasks in the `pool.dispatch` drive.
const DISPATCH_TASKS: usize = 1024;
/// Passes of the host spin per span.
const SPIN_PASSES: u32 = 2048;

/// Per-layer metrics that are the floor over the spans of one operation:
/// `(metric, span name, per counted item, nanoseconds per metric unit)`.
const SPAN_FLOORS: &[(&str, &str, bool, f64)] = &[
    ("host.spin_ns", "host.spin", true, 1.0),
    ("mpint.mont_mul_ns", "mpint.mont_mul", true, 1.0),
    ("mpint.mont_sqr_ns", "mpint.mont_sqr", true, 1.0),
    (
        "mpint.mod_pow_public_ms",
        "mpint.mod_pow_public",
        false,
        1e6,
    ),
    ("mpint.mod_pow_ct_ms", "mpint.mod_pow_ct", false, 1e6),
    ("mpint.multi_exp_ms", "mpint.multi_exp", false, 1e6),
    ("he.obfuscator_ms", "he.obfuscator", false, 1e6),
    ("he.encrypt_ms", "he.encrypt", false, 1e6),
    ("he.encrypt_pooled_us", "he.encrypt_pooled", false, 1e3),
    ("he.add_us", "he.add", false, 1e3),
    ("he.weighted_sum_ms", "he.weighted_sum", false, 1e6),
    ("he.scalar_mul_us", "he.scalar_mul", false, 1e3),
    ("he.decrypt_ms", "he.decrypt", false, 1e6),
    ("he.decrypt_crt_ms", "he.decrypt_crt", false, 1e6),
    ("he.pool_prefill_ms_per_item", "he.pool_prefill", true, 1e6),
    (
        "ghe.encrypt_batch_ms_per_item",
        "ghe.encrypt_batch",
        true,
        1e6,
    ),
    (
        "ghe.decrypt_batch_ms_per_item",
        "ghe.decrypt_batch",
        true,
        1e6,
    ),
    ("ghe.add_batch_us_per_item", "ghe.add_batch", true, 1e3),
    ("ghe.fold_groups_us_per_add", "ghe.fold_groups", true, 1e3),
    ("gpusim.launch_us", "gpusim.launch", false, 1e3),
    ("pool.dispatch_us_per_task", "pool.dispatch", true, 1e3),
    ("codec.pack_ns_per_value", "codec.pack", true, 1.0),
    ("codec.unpack_ns_per_value", "codec.unpack", true, 1.0),
    ("accel.encrypt_ms_per_word", "accel.encrypt", true, 1e6),
    ("accel.decrypt_ms_per_word", "accel.decrypt_sum", true, 1e6),
    ("accel.aggregate_us_per_add", "accel.aggregate", true, 1e3),
    (
        "accel.aggregate_weighted_ms",
        "accel.aggregate_weighted",
        false,
        1e6,
    ),
    (
        "accel.aggregate_tree_ms",
        "accel.aggregate_tree",
        false,
        1e6,
    ),
    ("round.engine_seq_ms", "round.engine_seq", false, 1e6),
    (
        "round.engine_pipelined_ms",
        "round.engine_pipelined",
        false,
        1e6,
    ),
    ("round.replay_ms", "round.replay", false, 1e6),
];

/// Calls `body` with the repetition index until `budget` is spent, within
/// `[MIN_REPS, MAX_REPS]` repetitions; stops at the first error.
fn repeat(budget: Duration, mut body: impl FnMut(u32) -> Res<()>) -> Res<()> {
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || (rep < MAX_REPS && start.elapsed() < budget) {
        body(rep)?;
        rep += 1;
    }
    Ok(())
}

/// Repeats `op`, each call in a span called `name`.
fn try_measure<T>(
    tracer: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    counts: Counts,
    budget: Duration,
    mut op: impl FnMut(u32) -> Res<T>,
) -> Res<()> {
    repeat(budget, |rep| {
        tracer
            .span(name, layer, rep, counts, |_| op(rep))
            .map(|out| drop(black_box(out)))
    })
}

/// [`try_measure`] for an operation that cannot fail.
fn measure<T>(
    tracer: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    counts: Counts,
    budget: Duration,
    mut op: impl FnMut(u32) -> T,
) -> Res<()> {
    try_measure(tracer, name, layer, counts, budget, |rep| Ok(op(rep)))
}

/// Floor, in nanoseconds per counted item, over every span called `name`.
fn floor_ns_per_item(tracer: &Tracer, name: &str) -> f64 {
    let per_item: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / s.counts.items.max(1) as f64)
        .collect();
    stats::floor(&per_item)
}

/// Floor, in nanoseconds per span, over every span called `name`.
fn floor_ns(tracer: &Tracer, name: &str) -> f64 {
    stats::floor(&tracer.durations_ns(name))
}

/// What the untraced and traced epoch samples of this run measured.
pub struct EpochFacts {
    pub untraced_wall_ms: Vec<f64>,
    pub traced_wall_ms: Vec<f64>,
    /// How much slower than a quiet host the reference samples between
    /// the untraced epoch samples ran.
    pub host_slowdown: f64,
    pub cost: UnitCost,
    pub net: api::NetTraffic,
}

/// Runs the ledger within roughly `budget` and fills `report` with every
/// per-layer metric. Returns how many operations it attempted and how
/// many gave a wrong result.
pub fn run(
    w: &Workload,
    plan: &Plan,
    tracer: &mut Tracer,
    budget: Duration,
    epoch: &EpochFacts,
    report: &mut Report,
) -> Res<(u64, u64)> {
    // Some 40 measured operations share the budget evenly.
    let slice = budget / 40;
    let seed = plan.train_seed;
    let accel = w.accel();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    // --- host -----------------------------------------------------------
    let spin_counts = Counts {
        items: SPIN_PASSES as u64,
        bytes: 0,
        limb_mults: SPIN_PASSES as u64 * host::SPIN_PASS_MACS,
    };
    measure(tracer, "host.spin", "host", spin_counts, slice, |_| {
        host::spin(SPIN_PASSES)
    })?;
    report.set("host.slowdown", epoch.host_slowdown);
    report.set("host.pool_threads", api::pool_threads() as f64);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.set("host.nproc", nproc as f64);

    // --- mpint ----------------------------------------------------------
    let mp = MpintOps::new(&w.keys, seed)?;
    let (s, sp) = (mp.n2_limbs(), mp.p2_limbs());
    let mul_macs = MpintOps::mont_mul_macs(s);
    let sqr_macs = MpintOps::mont_sqr_macs(s);
    let chain = |macs: u64| Counts {
        items: KERNEL_CHAIN as u64,
        bytes: 0,
        limb_mults: KERNEL_CHAIN as u64 * macs,
    };
    measure(
        tracer,
        "mpint.mont_mul",
        "mpint",
        chain(mul_macs),
        slice,
        |_| mp.mont_mul_chain(KERNEL_CHAIN),
    )?;
    measure(
        tracer,
        "mpint.mont_sqr",
        "mpint",
        chain(sqr_macs),
        slice,
        |_| mp.mont_sqr_chain(KERNEL_CHAIN),
    )?;
    let one = |limb_mults: u64| Counts {
        items: 1,
        bytes: 0,
        limb_mults,
    };
    let pow_public_macs = mp.n_bits() as u64 * sqr_macs + mp.n_bits() as u64 / 6 * mul_macs;
    measure(
        tracer,
        "mpint.mod_pow_public",
        "mpint",
        one(pow_public_macs),
        slice,
        |_| mp.mod_pow_public(),
    )?;
    let ladder_macs =
        mp.p_bits() as u64 * (MpintOps::mont_sqr_macs(sp) + MpintOps::mont_mul_macs(sp));
    measure(
        tracer,
        "mpint.mod_pow_ct",
        "mpint",
        one(ladder_macs),
        slice,
        |_| mp.mod_pow_secret(),
    )?;
    let multi_macs = api::MULTI_EXP_ARITY as u64 * 8 * mul_macs;
    measure(
        tracer,
        "mpint.multi_exp",
        "mpint",
        one(multi_macs),
        slice,
        |_| mp.multi_exp(),
    )?;
    let mont_mul_ns = floor_ns_per_item(tracer, "mpint.mont_mul");
    report.set("mpint.ns_per_limb_mult", mont_mul_ns / mul_macs as f64);

    // --- he::paillier ---------------------------------------------------
    let he = HeOps::new(&w.keys, seed)?;
    let mut obfuscators = Vec::new();
    measure(
        tracer,
        "he.obfuscator",
        "he::paillier",
        one(pow_public_macs),
        slice,
        |_| {
            obfuscators.push(he.obfuscator());
        },
    )?;
    try_measure(
        tracer,
        "he.encrypt",
        "he::paillier",
        one(pow_public_macs),
        slice,
        |_| {
            he.encrypt()
                .map(|ct| check(he.is_reference_ciphertext(&ct)))
        },
    )?;
    // Each precomputed pair blinds exactly one ciphertext.
    for (rep, obf) in obfuscators.into_iter().enumerate() {
        let ct = tracer.span(
            "he.encrypt_pooled",
            "he::paillier",
            rep as u32,
            one(mul_macs),
            |_| he.encrypt_pooled(obf),
        )?;
        check(he.is_reference_ciphertext(&ct));
    }
    measure(
        tracer,
        "he.add",
        "he::paillier",
        one(3 * mul_macs),
        slice,
        |_| he.add(),
    )?;
    try_measure(
        tracer,
        "he.weighted_sum",
        "he::paillier",
        one(multi_macs),
        slice,
        |_| he.weighted_sum(),
    )?;
    measure(
        tracer,
        "he.scalar_mul",
        "he::paillier",
        one(64 * sqr_macs),
        slice,
        |_| he.scalar_mul(),
    )?;
    let direct_macs = mp.n_bits() as u64 * (sqr_macs + mul_macs);
    try_measure(
        tracer,
        "he.decrypt",
        "he::paillier",
        one(direct_macs),
        slice,
        |_| he.decrypt().map(|m| check(he.is_reference_plaintext(&m))),
    )?;
    try_measure(
        tracer,
        "he.decrypt_crt",
        "he::paillier",
        one(2 * ladder_macs),
        slice,
        |_| {
            he.decrypt_crt()
                .map(|m| check(he.is_reference_plaintext(&m)))
        },
    )?;

    // --- codec ----------------------------------------------------------
    let vector = &w.vectors[0];
    let values = vector.len();
    let value_counts = Counts::items(values as u64);
    let words = api::codec_pack(accel, vector)?;
    let word_count = words.len();
    try_measure(tracer, "codec.pack", "codec", value_counts, slice, |_| {
        api::codec_pack(accel, vector)
    })?;
    let bound = api::accel_quant_error(accel);
    try_measure(tracer, "codec.unpack", "codec", value_counts, slice, |_| {
        api::codec_unpack(accel, &words, values)
            .map(|out| check(workloads::sums_within(&out, vector, bound)))
    })?;
    report.set(
        "codec.slots_per_word",
        api::codec_slots_per_word(accel) as f64,
    );
    report.set(
        "codec.compression_ratio",
        api::codec_compression_ratio(accel, values),
    );

    // --- he::ghe, gpu-sim, rayon shim -------------------------------------
    // Batch sizes and pool use follow the workload: the `Accelerator`
    // path sends one vector's words through a prefilled pool; Hetero SBT
    // sends one ciphertext per instance and never prefills.
    let sbt = w.shape.kind == Kind::Train(ModelKind::HeteroSbt);
    let batch = if sbt { w.shape.instances } else { word_count };
    let all_words: Vec<Nat> = w
        .vectors
        .iter()
        .map(|v| api::codec_pack(accel, v))
        .collect::<Res<Vec<_>>>()?
        .concat();
    let plaintexts: Vec<Nat> = all_words.iter().cycle().take(batch).cloned().collect();
    let ghe = GheOps::new(&w.keys);
    let batch_counts = Counts::items(batch as u64);
    // Hetero SBT's prefills go to seeds its encrypt spans never ask for.
    const UNUSED: u64 = 1 << 40;
    let tag = if sbt { UNUSED } else { 0 };
    let mut cts: Vec<Ct> = Vec::new();
    repeat(2 * slice, |rep| {
        let s = seed + rep as u64;
        tracer.span("he.pool_prefill", "he::paillier", rep, batch_counts, |_| {
            ghe.prefill(s + tag, batch)
        })?;
        cts = tracer.span("ghe.encrypt_batch", "he::ghe", rep, batch_counts, |_| {
            ghe.encrypt_batch(&plaintexts, s)
        })?;
        Ok(())
    })?;
    let (hits, misses) = ghe.pool_counts();
    try_measure(
        tracer,
        "ghe.decrypt_batch",
        "he::ghe",
        batch_counts,
        slice,
        |_| ghe.decrypt_batch(&cts).map(|m| check(m == plaintexts)),
    )?;
    try_measure(
        tracer,
        "ghe.add_batch",
        "he::ghe",
        batch_counts,
        slice,
        |_| ghe.add_batch(&cts, &cts),
    )?;
    // Skewed groups, as gradient-histogram buckets are.
    let groups: Vec<Vec<Ct>> = (0..batch.max(2))
        .map(|g| {
            cts.iter()
                .cycle()
                .skip(g)
                .take(1 + g % 7)
                .cloned()
                .collect()
        })
        .collect();
    let adds: u64 = groups
        .iter()
        .map(|g| g.len().saturating_sub(1) as u64)
        .sum();
    try_measure(
        tracer,
        "ghe.fold_groups",
        "he::ghe",
        Counts::items(adds),
        slice,
        |_| ghe.fold_groups(&groups),
    )?;
    measure(
        tracer,
        "gpusim.launch",
        "gpu-sim",
        Counts::items(1),
        slice,
        |_| ghe.launch_noop(),
    )?;
    let tasks = Counts::items(DISPATCH_TASKS as u64);
    measure(tracer, "pool.dispatch", "rayon", tasks, slice, |_| {
        api::pool_dispatch_noop(DISPATCH_TASKS)
    })?;
    report.set(
        "he.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set(
        "gpusim.sm_utilization",
        api::accel_sm_utilization(accel).max(ghe.sm_utilization()),
    );

    // One unpooled batch a thread wide, then at the default width.
    let speedup_plain: Vec<Nat> = all_words
        .iter()
        .cycle()
        .take(SPEEDUP_ITEMS)
        .cloned()
        .collect();
    let speedup_counts = Counts::items(SPEEDUP_ITEMS as u64);
    let narrow = GheOps::new(&w.keys);
    api::with_one_thread(|| {
        tracer.span(
            "pool.speedup.one_thread",
            "rayon",
            0,
            speedup_counts,
            |_| narrow.encrypt_batch(&speedup_plain, seed),
        )
    })??;
    tracer.span("pool.speedup.default", "rayon", 0, speedup_counts, |_| {
        narrow.encrypt_batch(&speedup_plain, seed)
    })?;
    report.set(
        "pool.speedup",
        floor_ns(tracer, "pool.speedup.one_thread")
            / floor_ns(tracer, "pool.speedup.default").max(1.0),
    );

    // --- fl::backend ----------------------------------------------------
    let parties = w.vectors.len();
    let word_counts = Counts::items(word_count as u64);
    // The Accelerator's round trip and, interleaved with it so that host
    // drift hits both alike, the same work done through its children at
    // the same shape and seeds: the ciphertexts must match bit for bit.
    repeat(6 * slice, |rep| {
        let s = seed + 2 * UNUSED + rep as u64;
        let ev = tracer.span("accel.encrypt", "fl::backend", rep, word_counts, |_| {
            api::accel_encrypt(accel, vector, s)
        })?;
        let out = tracer.span("accel.decrypt_sum", "fl::backend", rep, word_counts, |_| {
            api::accel_decrypt_sum(accel, &ev, 1)
        })?;
        check(workloads::sums_within(&out, vector, bound));
        let packed = tracer.span("codec.pack", "codec", rep, value_counts, |_| {
            api::codec_pack(accel, vector)
        })?;
        tracer.span(
            "accel.child.prefill",
            "he::paillier",
            rep,
            word_counts,
            |_| ghe.prefill(s, word_count),
        )?;
        let child_cts = tracer.span(
            "accel.child.encrypt_batch",
            "he::ghe",
            rep,
            word_counts,
            |_| ghe.encrypt_batch(&packed, s),
        )?;
        check(api::encvec_holds(&ev, &child_cts));
        let plain = tracer.span(
            "accel.child.decrypt_batch",
            "he::ghe",
            rep,
            word_counts,
            |_| ghe.decrypt_batch(&child_cts),
        )?;
        tracer.span("codec.unpack", "codec", rep, value_counts, |_| {
            api::codec_unpack(accel, &plain, values)
        })?;
        Ok(())
    })?;
    let children = floor_ns(tracer, "codec.pack")
        + floor_ns(tracer, "accel.child.prefill")
        + floor_ns(tracer, "accel.child.encrypt_batch")
        + floor_ns(tracer, "accel.child.decrypt_batch")
        + floor_ns(tracer, "codec.unpack");
    let parent = floor_ns(tracer, "accel.encrypt") + floor_ns(tracer, "accel.decrypt_sum");
    report.set("accel.self_share", 1.0 - children / parent.max(1.0));

    // Every party's upload, then the three server-side folds over them.
    let encrypted_now;
    let uploads = match w.uploads() {
        Some(uploads) => uploads,
        None => {
            encrypted_now = w
                .vectors
                .iter()
                .enumerate()
                .map(|(k, v)| api::accel_encrypt(accel, v, seed.wrapping_add(k as u64)))
                .collect::<Res<Vec<_>>>()?;
            &encrypted_now
        }
    };
    let total: u64 = w.weights.iter().sum();
    let total = u32::try_from(total).map_err(|_| "sample counts overflow u32")?;
    let shards = api::pool_threads();
    let sharded = api::accel_for_weights(&w.keys, parties as u32, total, shards, None)?;
    let arity = w.shape.tree_arity.max(2);
    let tree = api::accel_for_weights(&w.keys, parties as u32, total, shards, Some(arity))?;
    let add_counts = Counts::items((parties as u64 - 1) * word_count as u64);
    try_measure(
        tracer,
        "accel.aggregate",
        "fl::backend",
        add_counts,
        slice,
        |_| api::accel_aggregate(accel, uploads),
    )?;
    let mut flat_fp = 0;
    try_measure(
        tracer,
        "accel.aggregate_weighted",
        "fl::backend",
        one(0),
        slice,
        |_| {
            api::accel_aggregate_weighted(&sharded, uploads, &w.weights)
                .map(|agg| flat_fp = api::encvec_fingerprint(&agg))
        },
    )?;
    try_measure(
        tracer,
        "accel.aggregate_tree",
        "fl::backend",
        one(0),
        slice,
        |_| {
            api::accel_aggregate_weighted(&tree, uploads, &w.weights)
                .map(|agg| check(api::encvec_fingerprint(&agg) == flat_fp))
        },
    )?;
    let enc_word_ns = floor_ns_per_item(tracer, "accel.encrypt");
    let dec_word_ns = floor_ns_per_item(tracer, "accel.decrypt_sum");
    let add_ns = floor_ns_per_item(tracer, "accel.aggregate");

    // --- fl::engine -----------------------------------------------------
    let n = plan.engine_parties.min(parties);
    let round_vectors = &w.vectors[..n];
    let expected = workloads::plain_sums(round_vectors, None);
    let round_bound = n as f64 * bound;
    let round_counts = Counts::items((n * values) as u64);
    let mut overlap = 1.0;
    for (name, pipelined) in [
        ("round.engine_seq", false),
        ("round.engine_pipelined", true),
    ] {
        try_measure(tracer, name, "fl::engine", round_counts, slice, |rep| {
            api::engine_round(&w.env, pipelined, &w.cfg, round_vectors, seed + rep as u64).map(
                |(sums, cost)| {
                    check(workloads::sums_within(&sums, &expected, round_bound));
                    overlap = cost.overlap_speedup;
                },
            )
        })?;
    }
    // `round.replay` spans were also recorded by the oracle.
    for rep in 0..MIN_REPS {
        let sums = workloads::replay_round(accel, round_vectors, seed + rep as u64, tracer)?;
        check(workloads::sums_within(&sums, &expected, round_bound));
    }
    report.set("engine.overlap_speedup", overlap);

    // --- fl::net and the epoch ------------------------------------------
    let cost = &epoch.cost;
    report.set("net.messages", epoch.net.messages as f64);
    report.set("net.ciphertexts", epoch.net.ciphertexts as f64);
    report.set("net.comm_sim_s", epoch.net.sim_s);
    let phases = [
        "phase.compute_sim_s",
        "phase.encrypt_sim_s",
        "phase.uplink_sim_s",
        "phase.aggregate_sim_s",
        "phase.downlink_sim_s",
        "phase.decrypt_sim_s",
    ];
    for (name, v) in phases.into_iter().zip(cost.phase_sim_s) {
        report.set(name, v);
    }
    report.set("epoch.he_values", cost.he_values as f64);
    report.set("epoch.ciphertexts", cost.ciphertexts as f64);
    let untraced_floor = stats::floor(&epoch.untraced_wall_ms);
    let traced_floor = stats::floor(&epoch.traced_wall_ms);
    report.set(
        "epoch.wall_ms_p50",
        stats::percentile(&epoch.untraced_wall_ms, 50.0),
    );
    report.set(
        "epoch.wall_ms_p90",
        stats::percentile(&epoch.untraced_wall_ms, 90.0),
    );
    report.set("epoch.samples", epoch.untraced_wall_ms.len() as f64);
    report.set("epoch.sim_over_wall", cost.sim_s / (untraced_floor / 1e3));
    report.set(
        "trace.overhead_pct",
        (traced_floor / untraced_floor - 1.0) * 100.0,
    );

    // Child-operation floors times how often one unit runs them.
    let (p, wc) = (w.shape.parties as f64, word_count as f64);
    let round = p * wc * enc_word_ns + (p - 1.0) * wc * add_ns + wc * dec_word_ns;
    let explained_ns = match w.shape.kind {
        Kind::Train(ModelKind::HomoLr) => {
            let rows = w.shape.instances.div_ceil(w.shape.parties);
            rows.div_ceil(w.shape.batch_size).max(1) as f64 * round
        }
        Kind::Train(ModelKind::HeteroNn) => {
            let rounds = w.shape.instances.div_ceil(w.shape.batch_size).max(1) as f64;
            rounds * (round + (p - 1.0) * wc * (enc_word_ns + dec_word_ns))
        }
        Kind::Train(ModelKind::HeteroSbt) => {
            // One encryption per instance; every ciphertext on the wire
            // beyond the broadcast of those is a folded bucket that the
            // active party decrypts. Bucket folds are not counted.
            let n = w.shape.instances as f64;
            let decrypted = cost.ciphertexts as f64 - (p - 1.0) * n;
            n * floor_ns_per_item(tracer, "ghe.encrypt_batch")
                + decrypted * floor_ns_per_item(tracer, "ghe.decrypt_batch")
        }
        Kind::ServerAgg => {
            (p - 1.0) * wc * add_ns
                + floor_ns(tracer, "accel.aggregate_weighted")
                + floor_ns(tracer, "accel.aggregate_tree")
        }
    };
    report.set(
        "epoch.explained_share",
        explained_ns / (untraced_floor * 1e6),
    );

    for &(metric, span, per_item, ns_per_unit) in SPAN_FLOORS {
        let floor = if per_item {
            floor_ns_per_item(tracer, span)
        } else {
            floor_ns(tracer, span)
        };
        report.set(metric, floor / ns_per_unit);
    }
    Ok((attempted, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_repeats_at_least_the_floor_count_and_stops_on_budget() {
        let mut t = Tracer::new(true);
        measure(
            &mut t,
            "op",
            "test",
            Counts::items(2),
            Duration::ZERO,
            |rep| rep,
        )
        .unwrap();
        assert_eq!(t.durations_ns("op").len(), MIN_REPS as usize);
        assert!(floor_ns_per_item(&t, "op") <= floor_ns(&t, "op"));
        let mut calls = 0;
        let r = try_measure(
            &mut t,
            "bad",
            "test",
            Counts::default(),
            Duration::ZERO,
            |rep| {
                calls += 1;
                if rep == 2 {
                    Err("boom".to_string())
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(r, Err("boom".to_string()));
        assert_eq!(calls, 3);
    }
}
