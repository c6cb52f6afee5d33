//! The one file that names product symbols.
//!
//! Everything the benchmark drives in `crates/{fl,he,codec,mpint,gpu-sim}`
//! and the `rand`/`rand_chacha`/`rayon` shims goes through here, through
//! public functions only. README.md lists this surface: a later change to
//! the product keeps the benchmark building by editing this file alone,
//! and keeps it comparable by leaving the meaning of each function as is.
//!
//! Deliberately absent: `core::FlBooster`, `FlEnv::aggregation_round`,
//! `FlEnv::encrypted_exchange`, `Accelerator::secure_sum`, flcheck and the
//! `TrainConfig::engine` field (the round engine is entered through
//! `engine::run_round`).

use std::sync::Arc;

use codec::QuantizerConfig;
use fl::backend::EncryptedVector;
use fl::data::generators::DatasetSpec;
use fl::data::Dataset;
use fl::engine::{run_round, EngineConfig};
use fl::models::{HeteroNn, HeteroSbt, HomoLr};
use fl::train::{logloss, sigmoid, train, FlEnv, FlModel, TrainConfig};
use fl::{Accelerator, AggregationTopology, BackendKind, EpochBreakdown};
use gpu_sim::{Device, DeviceConfig, ItemOutcome, KernelSpec};
use he::paillier::{Ciphertext, Obfuscator, ObfuscatorPool, PaillierKeyPair};
use he::{GpuHe, HeBackend};
use mpint::cios::{mont_mul_mac_count, mont_sqr_mac_count};
use mpint::modpow::{mod_pow_ct, mod_pow_ctx};
use mpint::random::{random_below, random_bits};
use mpint::straus::multi_exp_ctx;
use mpint::{MontgomeryCtx, Natural};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub type Keys = PaillierKeyPair;
pub type Nat = Natural;
pub type Ct = Ciphertext;
pub type Obf = Obfuscator;
pub type EncVec = EncryptedVector;
pub type Data = Dataset;
pub type Accel = Accelerator;
pub type Env = FlEnv;
pub type TrainCfg = TrainConfig;
pub type Model = Box<dyn FlModel>;

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

pub fn keygen(seed: u64, bits: u32) -> Res<Keys> {
    PaillierKeyPair::generate(&mut rng(seed), bits).map_err(err)
}

/// The product's RCV1-profile dataset at a reduced geometry. The
/// generator keeps its own fixed seed: the dataset is a fixture, the way
/// the paper's RCV1 file is.
pub fn rcv1_dataset(instances: usize, features: usize, nnz_per_row: usize) -> Data {
    let mut spec = DatasetSpec::rcv1();
    spec.instances = instances;
    spec.features = features;
    spec.nnz_per_row = nnz_per_row.clamp(1, features);
    spec.generate(1.0)
}

/// `count` sample counts in `lo..=hi`, one per client.
pub fn sample_counts(seed: u64, count: usize, lo: u64, hi: u64) -> Vec<u64> {
    let mut rng = rng(seed);
    (0..count).map(|_| rng.gen_range(lo..=hi)).collect()
}

/// Mean logistic-regression gradient at the zero model over `rows` of
/// `data`: what one client uploads in the first FedAvg round.
pub fn lr_gradient_at_zero(data: &Data, rows: std::ops::Range<usize>) -> Vec<f64> {
    let mut grad = vec![0.0; data.num_features];
    let count = rows.len().max(1) as f64;
    for i in rows {
        data.rows[i].axpy_into((sigmoid(0.0) - data.labels[i]) / count, &mut grad);
    }
    grad
}

/// Training loss of the linear model `weights` over all of `data`.
pub fn lr_loss(data: &Data, weights: &[f64]) -> f64 {
    let predictions: Vec<f64> = data
        .rows
        .iter()
        .map(|row| sigmoid(row.dot(weights)))
        .collect();
    logloss(&predictions, &data.labels)
}

/// `parties` vectors of `len` values in `[-1, 1)`, the quantizer's range.
pub fn unit_vectors(seed: u64, parties: usize, len: usize) -> Vec<Vec<f64>> {
    let mut rng = rng(seed);
    (0..parties)
        .map(|_| (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect()
}

pub fn train_cfg(batch_size: usize, seed: u64, max_epochs: usize) -> TrainCfg {
    TrainConfig {
        batch_size,
        seed,
        max_epochs,
        // Never stop early: the loss after a fixed number of epochs is
        // what gets compared.
        tolerance: 0.0,
        ..TrainConfig::default()
    }
}

// ---------------------------------------------------------------------
// fl::backend
// ---------------------------------------------------------------------

pub fn accel(keys: &Keys, participants: u32) -> Res<Accel> {
    Accelerator::new(BackendKind::FlBooster, keys.clone(), participants).map_err(err)
}

/// An FLBooster backend whose slots have guard bits for weighted sums up
/// to `total_weight`, so `aggregate_weighted` results decode exactly.
pub fn accel_for_weights(
    keys: &Keys,
    parties: u32,
    total_weight: u32,
    shards: usize,
    tree_arity: Option<usize>,
) -> Res<Accel> {
    let accel = Accelerator::with_quantizer(
        BackendKind::FlBooster,
        keys.clone(),
        parties,
        QuantizerConfig::paper_default(total_weight),
    )
    .map_err(err)?
    .with_aggregation_shards(shards);
    Ok(match tree_arity {
        Some(arity) => accel.with_topology(AggregationTopology::tree(arity)),
        None => accel,
    })
}

pub fn accel_encrypt(accel: &Accel, values: &[f64], seed: u64) -> Res<EncVec> {
    accel.encrypt(values, seed).map_err(err)
}

pub fn accel_aggregate(accel: &Accel, vectors: &[EncVec]) -> Res<EncVec> {
    accel.aggregate(vectors).map_err(err)
}

pub fn accel_aggregate_weighted(accel: &Accel, vectors: &[EncVec], weights: &[u64]) -> Res<EncVec> {
    accel.aggregate_weighted(vectors, weights).map_err(err)
}

pub fn accel_decrypt_sum(accel: &Accel, vector: &EncVec, terms: u32) -> Res<Vec<f64>> {
    accel.decrypt_sum(vector, terms).map_err(err)
}

/// Simulated HE seconds charged since the last call; clears them.
pub fn accel_take_he_seconds(accel: &Accel) -> f64 {
    accel.take_timing().he_seconds
}

/// Worst-case absolute error of one quantized value.
pub fn accel_quant_error(accel: &Accel) -> f64 {
    accel.codec().quantizer().max_error()
}

pub fn accel_sm_utilization(accel: &Accel) -> f64 {
    accel
        .device_stats()
        .map_or(0.0, |s| s.mean_sm_utilization())
}

pub fn encvec_bytes(v: &EncVec) -> u64 {
    v.bytes()
}

pub fn encvec_words(v: &EncVec) -> u64 {
    v.ciphertext_count()
}

/// Whether `v` carries exactly the ciphertexts `cts`.
pub fn encvec_holds(v: &EncVec, cts: &[Ct]) -> bool {
    v.cts == cts
}

/// FNV-1a over every ciphertext limb: equal exactly when the bits are.
pub fn encvec_fingerprint(v: &EncVec) -> u64 {
    let mut h = Fnv::default();
    for ct in &v.cts {
        h.nat(&ct.value);
    }
    h.0
}

pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn nat(&mut self, n: &Nat) {
        self.word(n.limb_len() as u64);
        for &limb in n.limbs() {
            self.word(limb);
        }
    }
}

// ---------------------------------------------------------------------
// codec
// ---------------------------------------------------------------------

pub fn codec_pack(accel: &Accel, values: &[f64]) -> Res<Vec<Nat>> {
    accel.codec().pack(values).map_err(err)
}

pub fn codec_unpack(accel: &Accel, words: &[Nat], count: usize) -> Res<Vec<f64>> {
    accel.codec().unpack(words, count).map_err(err)
}

pub fn codec_words_for(accel: &Accel, count: usize) -> usize {
    accel.codec().words_for(count)
}

pub fn codec_slots_per_word(accel: &Accel) -> usize {
    accel.codec().slots_per_word()
}

pub fn codec_compression_ratio(accel: &Accel, count: usize) -> f64 {
    accel.codec().compression_ratio(count)
}

// ---------------------------------------------------------------------
// fl::train, fl::models, fl::net, fl::engine
// ---------------------------------------------------------------------

pub fn env(accel: Accel, seed: u64) -> Env {
    FlEnv::new(accel, seed)
}

pub fn env_accel(env: &Env) -> &Accel {
    &env.accel
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    HomoLr,
    HeteroNn,
    HeteroSbt,
}

pub fn build_model(kind: ModelKind, data: &Data, parties: u32, cfg: &TrainCfg) -> Res<Model> {
    Ok(match kind {
        ModelKind::HomoLr => Box::new(HomoLr::new(data, parties, cfg)),
        ModelKind::HeteroNn => Box::new(HeteroNn::new(data, parties, cfg).map_err(err)?),
        ModelKind::HeteroSbt => Box::new(HeteroSbt::new(data, parties, cfg).map_err(err)?),
    })
}

/// What the cost model charged for one unit of work, and the loss after it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitCost {
    pub sim_s: f64,
    pub wire_bytes: u64,
    pub loss: f64,
    /// Simulated seconds by phase: compute, encrypt, uplink, aggregate,
    /// downlink, decrypt.
    pub phase_sim_s: [f64; 6],
    pub he_values: u64,
    pub ciphertexts: u64,
    pub overlap_speedup: f64,
}

fn unit_cost(b: &EpochBreakdown, loss: f64) -> UnitCost {
    UnitCost {
        sim_s: b.total_seconds(),
        wire_bytes: b.comm_bytes,
        loss,
        phase_sim_s: [
            b.phases.compute_seconds,
            b.phases.encrypt_seconds,
            b.phases.uplink_seconds,
            b.phases.aggregate_seconds,
            b.phases.downlink_seconds,
            b.phases.decrypt_seconds,
        ],
        he_values: b.he_values,
        ciphertexts: b.ciphertexts,
        overlap_speedup: b.overlap_speedup(),
    }
}

pub fn model_loss(model: &Model) -> f64 {
    model.loss()
}

pub fn run_epoch(model: &mut Model, env: &Env, cfg: &TrainCfg, epoch: usize) -> Res<UnitCost> {
    let result = model.run_epoch(env, cfg, epoch).map_err(err)?;
    Ok(unit_cost(&result.breakdown, result.loss))
}

/// Loss after `cfg.max_epochs` epochs of `fl::train::train`.
pub fn train_final_loss(model: &mut Model, env: &Env, cfg: &TrainCfg) -> Res<f64> {
    Ok(train(model.as_mut(), env, cfg).map_err(err)?.final_loss())
}

/// Traffic the simulated network carried since `net_reset`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetTraffic {
    pub messages: u64,
    pub ciphertexts: u64,
    pub bytes: u64,
    pub sim_s: f64,
}

pub fn net_reset(env: &Env) {
    env.network.reset();
}

pub fn net_traffic(env: &Env) -> NetTraffic {
    let s = env.network.stats();
    NetTraffic {
        messages: s.messages,
        ciphertexts: s.ciphertexts,
        bytes: s.bytes,
        sim_s: s.seconds,
    }
}

/// One client uploads `v`.
pub fn net_send(env: &Env, v: &EncVec) -> Res<()> {
    env.network
        .send(v.ciphertext_count(), v.bytes())
        .map(drop)
        .map_err(err)
}

/// The server sends `v` to each of `receivers` clients.
pub fn net_broadcast(env: &Env, receivers: u32, v: &EncVec) -> Res<()> {
    env.network
        .broadcast(receivers, v.ciphertext_count(), v.bytes())
        .map(drop)
        .map_err(err)
}

/// One secure-aggregation round through the event-driven engine; returns
/// the element-wise sums and what the round was charged.
pub fn engine_round(
    env: &Env,
    pipelined: bool,
    cfg: &TrainCfg,
    parties: &[Vec<f64>],
    seed: u64,
) -> Res<(Vec<f64>, UnitCost)> {
    let engine = if pipelined {
        EngineConfig::default()
    } else {
        EngineConfig::sequential()
    };
    let flops = vec![0u64; parties.len()];
    let mut breakdown = EpochBreakdown::default();
    let outcome =
        run_round(env, &engine, cfg, parties, &flops, seed, &mut breakdown).map_err(err)?;
    Ok((outcome.sums, unit_cost(&breakdown, f64::NAN)))
}

// ---------------------------------------------------------------------
// mpint
// ---------------------------------------------------------------------

/// Operands for the mpint kernels at one key's widths: Montgomery
/// contexts mod `n²` and mod `p²` built by the benchmark, the way
/// `he::paillier` builds its own.
pub struct MpintOps {
    ctx_n2: MontgomeryCtx,
    ctx_p2: MontgomeryCtx,
    a_mont: Nat,
    b_mont: Nat,
    n: Nat,
    base: Nat,
    base_p2: Nat,
    p_minus_1: Nat,
    p_bits: u32,
    multi_bases: Vec<Nat>,
    multi_exps: Vec<Nat>,
}

/// Terms and exponent width of the `mpint.multi_exp` operation: one
/// server-side slot over 128 clients with sample-count weights.
pub const MULTI_EXP_ARITY: usize = 128;
pub const MULTI_EXP_BITS: u32 = 10;

impl MpintOps {
    pub fn new(keys: &Keys, seed: u64) -> Res<Self> {
        let mut rng = rng(seed);
        let n = keys.public.n.clone();
        let p = &keys.private.p;
        let ctx_n2 = MontgomeryCtx::new(&keys.public.n_squared).map_err(err)?;
        let ctx_p2 = MontgomeryCtx::new(&p.square()).map_err(err)?;
        let a_mont = ctx_n2.to_mont(&random_below(&mut rng, ctx_n2.modulus()));
        let b_mont = ctx_n2.to_mont(&random_below(&mut rng, ctx_n2.modulus()));
        let base = random_below(&mut rng, &n);
        let base_p2 = random_below(&mut rng, ctx_p2.modulus());
        let multi_bases = (0..MULTI_EXP_ARITY)
            .map(|_| random_below(&mut rng, ctx_n2.modulus()))
            .collect();
        let multi_exps = (0..MULTI_EXP_ARITY)
            .map(|_| {
                let mut e = random_bits(&mut rng, MULTI_EXP_BITS);
                e.set_bit(MULTI_EXP_BITS - 1, true);
                e
            })
            .collect();
        Ok(MpintOps {
            p_minus_1: p.checked_sub(&Nat::one()).unwrap_or_default(),
            p_bits: p.bit_len(),
            ctx_n2,
            ctx_p2,
            a_mont,
            b_mont,
            n,
            base,
            base_p2,
            multi_bases,
            multi_exps,
        })
    }

    /// Limbs of `n²`, the ciphertext modulus.
    pub fn n2_limbs(&self) -> usize {
        self.ctx_n2.width()
    }

    pub fn p2_limbs(&self) -> usize {
        self.ctx_p2.width()
    }

    pub fn n_bits(&self) -> u32 {
        self.n.bit_len()
    }

    pub fn p_bits(&self) -> u32 {
        self.p_bits
    }

    /// `iters` dependent `MontgomeryCtx::mont_mul` calls mod `n²`.
    pub fn mont_mul_chain(&self, iters: u32) -> Nat {
        let mut x = self.a_mont.clone();
        for _ in 0..iters {
            x = self.ctx_n2.mont_mul(&x, &self.b_mont);
        }
        x
    }

    /// `iters` dependent `MontgomeryCtx::mont_sqr` calls mod `n²`.
    pub fn mont_sqr_chain(&self, iters: u32) -> Nat {
        let mut x = self.a_mont.clone();
        for _ in 0..iters {
            x = self.ctx_n2.mont_sqr(&x);
        }
        x
    }

    /// `base^n mod n²`: the public-exponent power behind every blinding
    /// factor.
    pub fn mod_pow_public(&self) -> Nat {
        mod_pow_ctx(&self.ctx_n2, &self.base, &self.n)
    }

    /// `base^(p−1) mod p²` on the constant-time ladder: one half of a CRT
    /// decryption.
    pub fn mod_pow_secret(&self) -> Nat {
        mod_pow_ct(&self.ctx_p2, &self.base_p2, &self.p_minus_1, self.p_bits)
    }

    pub fn multi_exp(&self) -> Nat {
        multi_exp_ctx(&self.ctx_n2, &self.multi_bases, &self.multi_exps)
    }

    pub fn mont_mul_macs(limbs: usize) -> u64 {
        mont_mul_mac_count(limbs)
    }

    pub fn mont_sqr_macs(limbs: usize) -> u64 {
        mont_sqr_mac_count(limbs)
    }
}

// ---------------------------------------------------------------------
// he::paillier
// ---------------------------------------------------------------------

/// Terms of the `he.weighted_sum` operation.
pub const WEIGHTED_SUM_ARITY: usize = 128;

/// Operands for single Paillier operations under one key.
pub struct HeOps {
    keys: Keys,
    m: Nat,
    r: Nat,
    c1: Ct,
    c2: Ct,
    many: Vec<Ct>,
    weights: Vec<Nat>,
    scalar: Nat,
}

impl HeOps {
    pub fn new(keys: &Keys, seed: u64) -> Res<Self> {
        let mut rng = rng(seed);
        let pk = &keys.public;
        let m = random_bits(&mut rng, 256);
        let r = pk.batch_blinding(seed, 0);
        let c1 = pk.encrypt_with_r(&m, &r).map_err(err)?;
        let c2 = pk
            .encrypt_with_r(&random_bits(&mut rng, 256), &pk.batch_blinding(seed, 1))
            .map_err(err)?;
        // Distinct valid ciphertexts without paying for an encryption
        // each: every next one adds `c2` once more.
        let mut many = Vec::with_capacity(WEIGHTED_SUM_ARITY);
        let mut next = c1.clone();
        for _ in 0..WEIGHTED_SUM_ARITY {
            next = pk.add(&next, &c2);
            many.push(next.clone());
        }
        let weights = (0..WEIGHTED_SUM_ARITY)
            .map(|_| Nat::from(rng.gen_range(100u64..=999)))
            .collect();
        let mut scalar = random_bits(&mut rng, 64);
        scalar.set_bit(63, true);
        Ok(HeOps {
            keys: keys.clone(),
            m,
            r,
            c1,
            c2,
            many,
            weights,
            scalar,
        })
    }

    pub fn obfuscator(&self) -> Obf {
        self.keys.public.precompute_obfuscator(&self.r)
    }

    pub fn encrypt(&self) -> Res<Ct> {
        self.keys
            .public
            .encrypt_with_r(&self.m, &self.r)
            .map_err(err)
    }

    pub fn encrypt_pooled(&self, obf: Obf) -> Res<Ct> {
        self.keys
            .public
            .encrypt_with_obfuscator(&self.m, obf)
            .map_err(err)
    }

    pub fn add(&self) -> Ct {
        self.keys.public.add(&self.c1, &self.c2)
    }

    pub fn weighted_sum(&self) -> Res<Ct> {
        self.keys
            .public
            .weighted_sum(&self.many, &self.weights)
            .map_err(err)
    }

    pub fn scalar_mul(&self) -> Ct {
        self.keys.public.scalar_mul(&self.c1, &self.scalar)
    }

    pub fn decrypt(&self) -> Res<Nat> {
        self.keys.private.decrypt(&self.c1).map_err(err)
    }

    pub fn decrypt_crt(&self) -> Res<Nat> {
        self.keys.private.decrypt_crt(&self.c1).map_err(err)
    }

    /// Whether `ct` is bit-for-bit the encryption the fixed operands give.
    pub fn is_reference_ciphertext(&self, ct: &Ct) -> bool {
        ct == &self.c1
    }

    pub fn is_reference_plaintext(&self, m: &Nat) -> bool {
        m == &self.m
    }
}

// ---------------------------------------------------------------------
// he::ghe, gpu-sim, rayon shim
// ---------------------------------------------------------------------

/// A `GpuHe` on its own simulated device and its own obfuscator pool,
/// built the way `Accelerator` builds the FLBooster backend.
pub struct GheOps {
    keys: Keys,
    device: Arc<Device>,
    pool: Arc<ObfuscatorPool>,
    he: GpuHe,
}

impl GheOps {
    pub fn new(keys: &Keys) -> Self {
        let device = Arc::new(Device::new(DeviceConfig::rtx3090()));
        let pool = Arc::new(ObfuscatorPool::new(&keys.public));
        let he = GpuHe::new(Arc::clone(&device)).with_pool(Arc::clone(&pool));
        GheOps {
            keys: keys.clone(),
            device,
            pool,
            he,
        }
    }

    pub fn prefill(&self, seed: u64, count: usize) -> Res<()> {
        self.pool
            .prefill_batch(&self.keys.public, seed, count)
            .map_err(err)
    }

    pub fn encrypt_batch(&self, plaintexts: &[Nat], seed: u64) -> Res<Vec<Ct>> {
        self.he
            .encrypt_batch(&self.keys.public, plaintexts, seed)
            .map(|(cts, _)| cts)
            .map_err(err)
    }

    pub fn decrypt_batch(&self, cts: &[Ct]) -> Res<Vec<Nat>> {
        self.he
            .decrypt_batch(&self.keys.private, cts)
            .map(|(m, _)| m)
            .map_err(err)
    }

    pub fn add_batch(&self, a: &[Ct], b: &[Ct]) -> Res<Vec<Ct>> {
        self.he
            .add_batch(&self.keys.public, a, b)
            .map(|(cts, _)| cts)
            .map_err(err)
    }

    pub fn fold_groups(&self, groups: &[Vec<Ct>]) -> Res<Vec<Ct>> {
        self.he
            .fold_groups(&self.keys.public, groups)
            .map(|(cts, _)| cts)
            .map_err(err)
    }

    /// `(hits, misses)` of this pool since it was built.
    pub fn pool_counts(&self) -> (u64, u64) {
        (self.pool.hits(), self.pool.misses())
    }

    pub fn sm_utilization(&self) -> f64 {
        self.device.stats().mean_sm_utilization()
    }

    /// One `Device::launch` over a single item that does nothing.
    pub fn launch_noop(&self) -> usize {
        let (out, _) = self
            .device
            .launch(&KernelSpec::simple("noop"), &[0u8], 0, 0, |i, _| {
                ItemOutcome::new(i, 1)
            });
        out.len()
    }
}

pub fn pool_threads() -> usize {
    rayon::current_num_threads()
}

/// `tasks` items that do nothing, each scheduled as its own task.
pub fn pool_dispatch_noop(tasks: usize) -> usize {
    (0..tasks)
        .into_par_iter()
        .with_max_len(1)
        .map(std::hint::black_box)
        .sum()
}

/// Runs `f` with the pool one thread wide.
pub fn with_one_thread<T>(f: impl FnOnce() -> T) -> Res<T> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(err)?;
    Ok(pool.install(f))
}
