//! The acceleration systems under evaluation.
//!
//! Every experiment in the paper compares configurations of the same
//! pipeline — *who executes HE* (CPU vs GPU) and *whether batch
//! compression is applied*:
//!
//! | Backend     | HE engine                     | Batch compression | Transport |
//! |-------------|-------------------------------|-------------------|-----------|
//! | `Fate`      | CPU (serial per-value loop)   | no                | per-object serialization |
//! | `Haflo`     | GPU, fixed-block manager      | no                | per-object serialization |
//! | `FlBooster` | GPU, adaptive resource manager| yes               | batched binary framing |
//! | `WithoutGhe`| CPU                           | yes               | batched binary framing |
//! | `WithoutBc` | GPU, adaptive resource manager| no                | batched binary framing |
//!
//! `WithoutGhe` and `WithoutBc` are the Table-V ablations. All five run
//! the *same* cryptography on the *same* keys; only scheduling, packing,
//! and cost accounting differ, so loss trajectories are attributable to
//! quantization alone.
//!
//! Every `*_timed` entry point returns the HE layer's [`HeTiming`]
//! unchanged and charges nothing: [`crate::engine`] charges it and prices
//! the codec step around it. Only the four charging entry points
//! (`encrypt`, `aggregate`, `aggregate_weighted`, `decrypt_sum`) add
//! their HE seconds to the [`AccelTiming`] that
//! [`take_timing`](Accelerator::take_timing) reads.

use std::sync::Arc;

use codec::{BatchCodec, QuantizerConfig};
use gpu_sim::{resource::ResourceManager, Device, DeviceConfig, DeviceStats};
use he::ghe::{CpuHe, GpuHe, HeTiming, NodeExchange};
use he::paillier::{Ciphertext, ObfuscatorPool, PaillierKeyPair};
use he::HeBackend;
use mpint::Natural;
use parking_lot::Mutex;

use crate::net::NetworkConfig;
use crate::topology::AggregationTopology;
use crate::Result;

/// Which acceleration system a backend instance embodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// FATE baseline: CPU HE, no compression.
    Fate,
    /// HAFLO: GPU HE with a naive fixed launch configuration, no
    /// compression.
    Haflo,
    /// FLBooster: GPU HE with the resource manager plus batch compression.
    FlBooster,
    /// Ablation `w/o GHE`: FLBooster with HE forced back onto the CPU.
    WithoutGhe,
    /// Ablation `w/o BC`: FLBooster without batch compression.
    WithoutBc,
}

impl BackendKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Fate => "FATE",
            BackendKind::Haflo => "HAFLO",
            BackendKind::FlBooster => "FLBooster",
            BackendKind::WithoutGhe => "w/o GHE",
            BackendKind::WithoutBc => "w/o BC",
        }
    }

    /// The three headline systems of Tables III/IV/VI.
    pub fn headline() -> [BackendKind; 3] {
        [
            BackendKind::Fate,
            BackendKind::Haflo,
            BackendKind::FlBooster,
        ]
    }

    /// The ablation set of Table V.
    pub fn ablations() -> [BackendKind; 3] {
        [
            BackendKind::FlBooster,
            BackendKind::WithoutGhe,
            BackendKind::WithoutBc,
        ]
    }
}

/// An encrypted gradient vector in flight.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncryptedVector {
    /// Ciphertexts (packed words or one per value).
    pub cts: Vec<Ciphertext>,
    /// Number of gradient components carried.
    pub count: usize,
}

impl EncryptedVector {
    /// Wire bytes of the ciphertext payload.
    pub fn bytes(&self) -> u64 {
        self.cts.iter().map(|c| c.wire_size_bytes() as u64).sum()
    }

    /// Number of ciphertext objects (what per-object serialization
    /// charges).
    pub fn ciphertext_count(&self) -> u64 {
        self.cts.len() as u64
    }
}

/// Simulated HE seconds the charging entry points (`encrypt`,
/// `aggregate`, `aggregate_weighted`, `decrypt_sum`) accumulated since
/// the last [`Accelerator::take_timing`]. The `*_timed` entry points
/// return the HE layer's [`HeTiming`] and charge nothing here.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AccelTiming {
    /// Simulated HE seconds.
    pub he_seconds: f64,
}

/// Two encrypted vectors (or a vector list and its weights) that had to
/// line up and did not.
fn length_mismatch(left: usize, right: usize) -> crate::Error {
    flbooster_core::Error::LengthMismatch { left, right }.into()
}

/// One acceleration system: HE engine + packing policy + transport
/// profile.
pub struct Accelerator {
    kind: BackendKind,
    keys: PaillierKeyPair,
    codec: BatchCodec,
    he: Box<dyn HeBackend>,
    batch_compression: bool,
    device: Option<Arc<Device>>,
    net_profile: NetworkConfig,
    participants: u32,
    topology: AggregationTopology,
    timing: Mutex<AccelTiming>,
}

impl Accelerator {
    /// Builds a backend of `kind` around an existing key pair (all
    /// backends in one experiment share keys so ciphertexts are
    /// comparable).
    pub fn new(kind: BackendKind, keys: PaillierKeyPair, participants: u32) -> Result<Self> {
        Self::with_quantizer(
            kind,
            keys,
            participants,
            QuantizerConfig::paper_default(participants),
        )
    }

    /// Builds a backend with an explicit quantizer configuration.
    ///
    /// The convergence-bias experiment (paper Table VII) uses this to
    /// construct the "without compression techniques" reference: FATE's
    /// float encoding keeps the full 52-bit mantissa, modeled as an
    /// `r = 52`-bit quantizer whose error is at the f64 epsilon.
    pub fn with_quantizer(
        kind: BackendKind,
        keys: PaillierKeyPair,
        participants: u32,
        qcfg: QuantizerConfig,
    ) -> Result<Self> {
        let key_bits = keys.public.key_bits;
        // Without batch compression every value is its own plaintext: the
        // same codec, one slot per word.
        let batch_compression = matches!(kind, BackendKind::FlBooster | BackendKind::WithoutGhe);
        let codec = BatchCodec::new(qcfg, key_bits).map_err(flbooster_core::Error::from)?;
        let codec = if batch_compression {
            codec
        } else {
            codec.one_slot_per_word()
        };

        // Blinding-factor pre-generation is an FLBooster-family
        // optimization (and rides along in both ablations); the FATE and
        // HAFLO baselines pay the full `r^n` on every encryption. The
        // accelerator holds the key pair, so its pool is the key owner's:
        // the per-key base and its two half-width tables are built here,
        // at construction, and a factor is then two short comb powers and
        // a CRT step.
        let pool = || Arc::new(ObfuscatorPool::for_owner(&keys.private));

        let (he, device): (Box<dyn HeBackend>, Option<Arc<Device>>) = match kind {
            BackendKind::Fate => (Box::new(CpuHe::default()), None),
            BackendKind::WithoutGhe => (Box::new(CpuHe::default().with_pool(pool())), None),
            BackendKind::Haflo => {
                // Naive launch: fixed 256-thread blocks, no branch
                // combining — what a direct CUDA port does.
                let device = Arc::new(Device::with_manager(
                    DeviceConfig::rtx3090(),
                    ResourceManager::fixed(256),
                ));
                (Box::new(GpuHe::new(Arc::clone(&device))), Some(device))
            }
            BackendKind::FlBooster | BackendKind::WithoutBc => {
                let device = Arc::new(Device::new(DeviceConfig::rtx3090()));
                let gpu = GpuHe::new(Arc::clone(&device)).with_pool(pool());
                (Box::new(gpu), Some(device))
            }
        };

        let net_profile = match kind {
            BackendKind::Fate | BackendKind::Haflo => NetworkConfig::fate_profile(),
            _ => NetworkConfig::flbooster_profile(),
        };

        Ok(Accelerator {
            kind,
            keys,
            codec,
            he,
            batch_compression,
            device,
            net_profile,
            participants,
            topology: AggregationTopology::Flat,
            timing: Mutex::new(AccelTiming::default()),
        })
    }

    /// Routes aggregation through `topology` (default flat). Tree
    /// topologies fold party vectors at edge aggregators before the
    /// server; results stay bit-identical to the flat fold, only the
    /// charging (per-node device time, per-hop wire traffic) moves.
    pub fn with_topology(mut self, topology: AggregationTopology) -> Self {
        self.topology = topology;
        self
    }

    /// Returns `self` unchanged. A weighted fold is one Bos–Coster chain
    /// per slot, charged as that chain ([`HeBackend::weighted_aggregate`]),
    /// so a shard count moves neither a ciphertext nor a charge; the
    /// builder stays because the benchmark's frozen API calls it.
    pub fn with_aggregation_shards(self, _shards: usize) -> Self {
        self
    }

    /// The aggregation topology in effect.
    pub fn topology(&self) -> AggregationTopology {
        self.topology
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Key size in bits.
    pub fn key_bits(&self) -> u32 {
        self.keys.public.key_bits
    }

    /// The shared key pair.
    pub fn keys(&self) -> &PaillierKeyPair {
        &self.keys
    }

    /// Participants the quantizer was provisioned for.
    pub fn participants(&self) -> u32 {
        self.participants
    }

    /// The transport profile this backend's traffic should be charged
    /// under.
    pub fn network_profile(&self) -> NetworkConfig {
        self.net_profile
    }

    /// Whether batch compression is active.
    pub fn batch_compression(&self) -> bool {
        self.batch_compression
    }

    /// The batch codec (quantizer access for error bounds).
    pub fn codec(&self) -> &BatchCodec {
        &self.codec
    }

    /// Quantizes, packs (if enabled), and encrypts a gradient vector,
    /// charging the cost to the shared accumulator:
    /// [`Accelerator::encrypt_timed`], charged.
    pub fn encrypt(&self, values: &[f64], seed: u64) -> Result<EncryptedVector> {
        let (ev, t) = self.encrypt_timed(values, seed)?;
        self.charge_accel(&t);
        Ok(ev)
    }

    /// Quantizes, packs (if enabled), and encrypts a gradient vector,
    /// returning the HE launch's cost alongside the ciphertexts instead
    /// of charging the shared accumulator: the codec step, then
    /// [`encrypt_words_timed`](Self::encrypt_words_timed). The codec
    /// step's seconds are priced by [`crate::engine`], which knows the
    /// value count.
    ///
    /// The round engine needs the *per-client* cost to lay client
    /// encrypts out on its simulated timeline, and it runs client
    /// encrypts concurrently on the host pool — a take-timing
    /// dance around the shared [`Mutex`] accumulator would interleave
    /// clients. Callers must charge the returned timing themselves (the
    /// engine charges it to the epoch breakdown), so dropping it is a
    /// warning, and an error under `deny(unused_must_use)`:
    ///
    /// ```compile_fail
    /// #![deny(unused_must_use)]
    /// # use fl::{Accelerator, BackendKind};
    /// # fn demo(accel: &Accelerator, v: Vec<f64>) -> fl::Result<()> {
    /// accel.encrypt_timed(&v, 1)?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn encrypt_timed(&self, values: &[f64], seed: u64) -> Result<(EncryptedVector, HeTiming)> {
        // Quantize-and-pack runs on the data owner's host before
        // encryption; its timing is visible only to the plaintext owner.
        let plaintexts = self.codec.pack(values)?;
        let (cts, timing) = self.encrypt_words_timed(&plaintexts, seed)?;
        Ok((
            EncryptedVector {
                cts,
                count: values.len(),
            },
            timing,
        ))
    }

    /// Encrypts plaintext words a protocol has already encoded — what
    /// [`encrypt_timed`](Self::encrypt_timed) does after its codec step —
    /// returning the cost instead of charging it.
    ///
    /// On the FLBooster-family backends each word's blinding factor comes
    /// from the backend's pool inside the encrypt item that uses it, on
    /// the caller's wall clock, and the simulated charge is the pooled
    /// one (the paper's pooling argument: pre-generation is off the
    /// modelled hot path) while the host still pays for every factor: a
    /// fixed-base power from the pool's per-key table, by the key owner's
    /// half-width route (the accelerator holds the key pair; a party
    /// holding the public key alone would build its pool with
    /// [`ObfuscatorPool::new`] and pay one full-width comb power).
    pub fn encrypt_words_timed(
        &self,
        words: &[Natural],
        seed: u64,
    ) -> Result<(Vec<Ciphertext>, HeTiming)> {
        Ok(self.he.encrypt_batch(&self.keys.public, words, seed)?)
    }

    /// Homomorphically folds several participants' vectors into one,
    /// routed through [`topology`](Self::topology): each edge
    /// aggregator folds its fan-in, then the partial aggregates fold
    /// level by level — flat is the tree with one group, a single fold at
    /// the server. Each aggregator node is one launch and one charge, and
    /// each tree level one call, its nodes side by side on the host pool
    /// ([`HeBackend::sum_batches_each`]). Homomorphic addition is a
    /// product of canonical residues mod `n²` — associative — so every
    /// topology yields the same bits and charges the same `parties − 1`
    /// additions.
    pub fn aggregate(&self, vectors: &[EncryptedVector]) -> Result<EncryptedVector> {
        let leaves = self.fold_level(vectors)?;
        self.fold_levels(leaves)
    }

    /// Folds one level of partial aggregates into the next until the
    /// root remains (nothing to do when the leaves were one group).
    fn fold_levels(&self, mut level: Vec<EncryptedVector>) -> Result<EncryptedVector> {
        while level.len() > 1 {
            level = self.fold_level(&level)?;
        }
        Ok(level.pop().unwrap_or_default())
    }

    /// One tree level: every aggregator node folds its fan-in, one launch
    /// and one charge per node (a single vector passes through
    /// uncharged), all in one [`HeBackend::sum_batches_each`] call. The
    /// earliest failing node's error wins, and a failed level charges
    /// nothing.
    fn fold_level(&self, vectors: &[EncryptedVector]) -> Result<Vec<EncryptedVector>> {
        #[expect(
            clippy::indexing_slicing,
            reason = "`leaf_groups` tiles `0..vectors.len()` exactly"
        )]
        let nodes: Vec<&[EncryptedVector]> = self
            .topology
            .leaf_groups(vectors.len())
            .into_iter()
            .map(|g| &vectors[g])
            .collect();
        // The nodes before the first whose sizes do not line up fold;
        // that node's mismatch is the level's error unless an earlier
        // node's fold fails first.
        let mut folds: Vec<Vec<&[Ciphertext]>> = Vec::new();
        let mut mismatch = None;
        for node in &nodes {
            if let [first, rest @ ..] = node {
                if let Some(v) = rest.iter().find(|v| v.count != first.count) {
                    mismatch = Some(length_mismatch(first.count, v.count));
                    break;
                }
                if !rest.is_empty() {
                    folds.push(node.iter().map(|v| v.cts.as_slice()).collect());
                }
            }
        }
        let folds: Vec<&[&[Ciphertext]]> = folds.iter().map(Vec::as_slice).collect();
        let sums = self.he.sum_batches_each(&self.keys.public, &folds)?;
        if let Some(e) = mismatch {
            return Err(e);
        }
        let mut sums = sums.into_iter();
        Ok(nodes
            .iter()
            .map(|node| match node {
                [] => EncryptedVector::default(),
                [only] => only.clone(),
                [first, ..] => {
                    let (cts, t) = sums.next().unwrap_or_default();
                    self.charge_accel(&t);
                    EncryptedVector {
                        cts,
                        count: first.count,
                    }
                }
            })
            .collect())
    }

    /// Weighted homomorphic aggregation: slot `j` of the result holds
    /// `E(Σᵢ weights[i] · mᵢⱼ)`. One Bos–Coster chain per slot replaces
    /// the per-party `scalar_mul` + `add` loop (see
    /// [`he::paillier::PaillierPublicKey::weighted_sum`]) and is charged
    /// as that chain ([`HeBackend::weighted_aggregate`]).
    /// The weighted stage happens exactly once, at the leaves of the
    /// [`topology`](Self::topology) — one group when flat — and upper
    /// levels only add partials. Each tree level is one call, its nodes
    /// side by side on the host pool, one launch and one charge per node
    /// ([`HeBackend::weighted_aggregate_each`], then
    /// [`HeBackend::sum_batches_each`] per upper level). Key identity is
    /// checked per ciphertext, so cross-key mixes fail loudly in release
    /// builds too.
    pub fn aggregate_weighted(
        &self,
        vectors: &[EncryptedVector],
        weights: &[u64],
    ) -> Result<EncryptedVector> {
        if vectors.len() != weights.len() {
            return Err(length_mismatch(vectors.len(), weights.len()));
        }
        let count = vectors.first().map_or(0, |v| v.count);
        if let Some(v) = vectors.iter().find(|v| v.count != count) {
            return Err(length_mismatch(count, v.count));
        }
        let batches: Vec<&[Ciphertext]> = vectors.iter().map(|v| v.cts.as_slice()).collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "`leaf_groups` tiles `0..batches.len()`, which the check above \
                      pins to `weights.len()`"
        )]
        let nodes: Vec<(&[&[Ciphertext]], &[u64])> = self
            .topology
            .leaf_groups(batches.len())
            .into_iter()
            .map(|g| (&batches[g.clone()], &weights[g]))
            .collect();
        let leaves = self
            .he
            .weighted_aggregate_each(&self.keys.public, &nodes)?
            .into_iter()
            .map(|(cts, t)| {
                self.charge_accel(&t);
                EncryptedVector { cts, count }
            })
            .collect();
        self.fold_levels(leaves)
    }

    /// One homomorphic addition of two same-shaped encrypted vectors,
    /// returning the cost alongside the sum instead of charging the
    /// shared accumulator. This is the streaming-fold step the round
    /// engine performs each time a ciphertext arrives at an aggregator
    /// node; the engine charges the returned timing itself. Vectors of
    /// different sizes are a [`flbooster_core::Error::LengthMismatch`].
    pub fn add_timed(
        &self,
        acc: &EncryptedVector,
        v: &EncryptedVector,
    ) -> Result<(EncryptedVector, HeTiming)> {
        if v.count != acc.count {
            return Err(length_mismatch(acc.count, v.count));
        }
        let (cts, t) = self.he.add_batch(&self.keys.public, &acc.cts, &v.cts)?;
        Ok((
            EncryptedVector {
                cts,
                count: acc.count,
            },
            t,
        ))
    }

    /// One SecureBoost tree node's exchange: every host's reply and the
    /// guest's decryption of them. For each party, every non-empty group
    /// of its bucket groups folded, and the sums packed `slot_bits` apart
    /// into as few ciphertexts as the key allows
    /// ([`HeBackend::fold_packed`]; a slot as wide as the plaintext word
    /// keeps one sum per ciphertext); then every reply's words decrypted
    /// in party order, as [`decrypt_words_timed`](Self::decrypt_words_timed)
    /// would. One [`HeBackend::fold_packed_decrypt`] call: one launch per
    /// party, as hosts on their own servers would run them, and one
    /// decrypt launch whose items start as their words are packed, all in
    /// one drive of the host pool. Each party's reply and cost come back
    /// in party order for the caller's epoch breakdown, then the words and
    /// the decryption's cost; the device records the launches in that
    /// order, and the earliest failing party's error wins at any pool
    /// width.
    pub fn fold_packed_decrypt_timed(
        &self,
        parties: &[Vec<Vec<&Ciphertext>>],
        slot_bits: u32,
    ) -> Result<NodeExchange> {
        let parties: Vec<&[Vec<&Ciphertext>]> = parties.iter().map(Vec::as_slice).collect();
        Ok(self
            .he
            .fold_packed_decrypt(&self.keys.private, &parties, slot_bits)?)
    }

    /// Decrypts ciphertexts to their plaintext words — what
    /// [`decrypt_sum_timed`](Self::decrypt_sum_timed) does before its
    /// codec step — returning the cost instead of charging it.
    pub fn decrypt_words_timed(&self, cts: &[Ciphertext]) -> Result<(Vec<Natural>, HeTiming)> {
        Ok(self.he.decrypt_batch(&self.keys.private, cts)?)
    }

    /// Decrypts an aggregated vector whose slots hold sums of `terms`
    /// contributions, returning the cost alongside the values instead of
    /// charging the shared accumulator (see
    /// [`Accelerator::encrypt_timed`] for why the round engine needs
    /// uncharged variants): [`decrypt_words_timed`](Self::decrypt_words_timed),
    /// then the codec step, which [`crate::engine`] prices.
    pub fn decrypt_sum_timed(
        &self,
        vector: &EncryptedVector,
        terms: u32,
    ) -> Result<(Vec<f64>, HeTiming)> {
        let (plaintexts, timing) = self.decrypt_words_timed(&vector.cts)?;
        let values = self.codec.unpack_sums(&plaintexts, vector.count, terms)?;
        Ok((values, timing))
    }

    /// Decrypts an aggregated vector whose slots hold sums of `terms`
    /// contributions, charging the cost to the shared accumulator.
    pub fn decrypt_sum(&self, vector: &EncryptedVector, terms: u32) -> Result<Vec<f64>> {
        let (values, t) = self.decrypt_sum_timed(vector, terms)?;
        self.charge_accel(&t);
        Ok(values)
    }

    /// Accumulated backend timing since the last [`Accelerator::take_timing`].
    pub fn timing(&self) -> AccelTiming {
        self.timing.with(|t| *t)
    }

    /// Returns and clears the accumulated timing.
    pub fn take_timing(&self) -> AccelTiming {
        self.timing.with(std::mem::take)
    }

    /// GPU statistics, when this backend runs on the simulated device.
    pub fn device_stats(&self) -> Option<DeviceStats> {
        self.device.as_ref().map(|d| d.stats())
    }

    /// Charges an HE launch's seconds to the shared accumulator. Only the
    /// four charging entry points call it — `encrypt`, `aggregate`,
    /// `aggregate_weighted`, `decrypt_sum` — so the accumulator holds
    /// exactly their work; every `*_timed` entry point leaves charging to
    /// its caller.
    fn charge_accel(&self, t: &HeTiming) {
        self.timing.with(|acc| acc.he_seconds += t.sim_seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpint::straus::multi_exp_plan;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn keys() -> PaillierKeyPair {
        let mut rng = ChaCha8Rng::seed_from_u64(0xFA7E);
        PaillierKeyPair::generate(&mut rng, 128).unwrap()
    }

    fn grads(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.37).sin() * 0.8).collect()
    }

    const ALL: [BackendKind; 5] = [
        BackendKind::Fate,
        BackendKind::Haflo,
        BackendKind::FlBooster,
        BackendKind::WithoutGhe,
        BackendKind::WithoutBc,
    ];

    #[test]
    fn all_backends_roundtrip_identically_in_value() {
        let keys = keys();
        let g = grads(40);
        let mut results = Vec::new();
        for kind in ALL {
            let acc = Accelerator::new(kind, keys.clone(), 4).unwrap();
            let enc = acc.encrypt(&g, 7).unwrap();
            let dec = acc.decrypt_sum(&enc, 1).unwrap();
            // The vector-level decrypt is the word-level one plus its codec
            // step, at the same HE cost; neither timed call charges anything.
            let charged = acc.timing();
            let (words, t) = acc.decrypt_words_timed(&enc.cts).unwrap();
            let (values, vector_t) = acc.decrypt_sum_timed(&enc, 1).unwrap();
            assert_eq!((words.len(), &values), (enc.cts.len(), &dec), "{kind:?}");
            assert_eq!(t, vector_t, "{kind:?}");
            assert_eq!(acc.timing(), charged, "{kind:?}");
            results.push(dec);
        }
        // Same quantizer everywhere => identical decoded values.
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        let bound = 1e-8;
        for (a, b) in g.iter().zip(&results[0]) {
            assert!((a - b).abs() < bound);
        }
    }

    /// Words go through the pool exactly where the vector path's do: the
    /// FLBooster family is charged the pooled encrypt, FATE and HAFLO pay
    /// the full one. The pool changes the charge, not the ciphertexts —
    /// they equal a fresh pooled backend's — and it computes one factor
    /// per word, inside the call, at any host thread count.
    #[test]
    fn word_encryption_is_charged_pooled_on_exactly_the_pooled_backends() {
        let keys = keys();
        let pk = &keys.public;
        let words: Vec<Natural> = (0..6u64).map(|i| Natural::from(1000 + 17 * i)).collect();
        let k = words.len() as u64;
        for kind in ALL {
            let acc = Accelerator::new(kind, keys.clone(), 4).unwrap();
            let (cts, t) = acc.encrypt_words_timed(&words, 11).unwrap();
            // The launch underneath: one item per word, charged as is.
            let (launched, ht) = acc.he.encrypt_batch(pk, &words, 11).unwrap();
            assert_eq!(launched, cts, "{kind:?}");
            assert_eq!((ht.items, ht), (k, t), "{kind:?}");
            let pooled = !matches!(kind, BackendKind::Fate | BackendKind::Haflo);
            assert_eq!(acc.he.pool().is_some(), pooled, "{kind:?}");
            if let Some(pool) = acc.he.pool() {
                assert_eq!(ht.ops, k * pk.encrypt_pooled_op_estimate(), "{kind:?}");
                let fresh =
                    CpuHe::default().with_pool(Arc::new(ObfuscatorPool::for_owner(&keys.private)));
                let (fresh_cts, fresh_t) = fresh.encrypt_batch(pk, &words, 11).unwrap();
                assert_eq!(cts, fresh_cts, "{kind:?}");
                assert_eq!(fresh_t.ops, ht.ops, "{kind:?}");
                for threads in [1, 2, 8] {
                    let before = pool.hits();
                    let host = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let (again, _) = host.install(|| acc.encrypt_words_timed(&words, 11).unwrap());
                    assert_eq!(again, cts, "{kind:?}, threads={threads}");
                    assert_eq!(pool.hits() - before, k, "{kind:?}, threads={threads}");
                }
                assert_eq!(pool.misses(), 0, "{kind:?}");
            } else {
                assert_eq!(ht.ops, k * pk.encrypt_op_estimate(), "{kind:?}");
            }
            assert_eq!(acc.decrypt_words_timed(&cts).unwrap().0, words, "{kind:?}");
            assert_eq!(acc.timing(), AccelTiming::default(), "{kind:?}");
        }
    }

    #[test]
    fn compression_reduces_ciphertext_count() {
        let keys = keys();
        let g = grads(64);
        let fate = Accelerator::new(BackendKind::Fate, keys.clone(), 4).unwrap();
        let boost = Accelerator::new(BackendKind::FlBooster, keys, 4).unwrap();
        let ef = fate.encrypt(&g, 1).unwrap();
        let eb = boost.encrypt(&g, 1).unwrap();
        assert_eq!(ef.ciphertext_count(), 64);
        assert!(
            eb.ciphertext_count() <= 64 / 3 + 1,
            "{}",
            eb.ciphertext_count()
        );
        assert!(eb.bytes() < ef.bytes());
    }

    #[test]
    fn timing_ordering_fate_slowest_he() {
        let keys = keys();
        let g = grads(128);
        let he_secs = |kind| {
            let acc = Accelerator::new(kind, keys.clone(), 4).unwrap();
            acc.encrypt(&g, 1).unwrap();
            acc.timing().he_seconds
        };
        let fate = he_secs(BackendKind::Fate);
        let haflo = he_secs(BackendKind::Haflo);
        let boost = he_secs(BackendKind::FlBooster);
        assert!(fate > haflo, "FATE {fate} !> HAFLO {haflo}");
        assert!(haflo > boost, "HAFLO {haflo} !> FLBooster {boost}");
    }

    #[test]
    fn take_timing_resets() {
        let acc = Accelerator::new(BackendKind::Fate, keys(), 4).unwrap();
        acc.encrypt(&grads(4), 0).unwrap();
        let t = acc.take_timing();
        assert!(t.he_seconds > 0.0);
        assert_eq!(acc.timing(), AccelTiming::default());
    }

    #[test]
    fn device_stats_only_on_gpu_backends() {
        let keys = keys();
        assert!(Accelerator::new(BackendKind::Fate, keys.clone(), 4)
            .unwrap()
            .device_stats()
            .is_none());
        let h = Accelerator::new(BackendKind::Haflo, keys, 4).unwrap();
        h.encrypt(&grads(8), 0).unwrap();
        let stats = h.device_stats().unwrap();
        assert_eq!(stats.launches, 1);
    }

    #[test]
    fn network_profiles_differ() {
        let keys = keys();
        let fate = Accelerator::new(BackendKind::Fate, keys.clone(), 4).unwrap();
        let boost = Accelerator::new(BackendKind::FlBooster, keys, 4).unwrap();
        assert!(
            boost.network_profile().per_ciphertext_seconds
                < fate.network_profile().per_ciphertext_seconds
        );
    }

    #[test]
    fn empty_aggregate_ok() {
        let acc = Accelerator::new(BackendKind::Fate, keys(), 4).unwrap();
        let agg = acc.aggregate(&[]).unwrap();
        assert_eq!(agg.count, 0);
        let tree = Accelerator::new(BackendKind::Fate, keys(), 4)
            .unwrap()
            .with_topology(AggregationTopology::tree(4));
        assert_eq!(tree.aggregate(&[]).unwrap().count, 0);
        assert_eq!(tree.aggregate_weighted(&[], &[]).unwrap().count, 0);
    }

    #[test]
    fn misaligned_vectors_are_length_mismatch_errors_on_every_topology() {
        let keys = keys();
        for topology in [AggregationTopology::Flat, AggregationTopology::tree(2)] {
            let acc = Accelerator::new(BackendKind::Fate, keys.clone(), 4)
                .unwrap()
                .with_topology(topology);
            let (short, long) = (
                acc.encrypt(&grads(3), 1).unwrap(),
                acc.encrypt(&grads(5), 2).unwrap(),
            );
            let mismatch = |left, right| {
                crate::Error::Platform(flbooster_core::Error::LengthMismatch { left, right })
            };
            let vectors = [short.clone(), short.clone(), long.clone()];
            assert_eq!(acc.aggregate(&vectors).unwrap_err(), mismatch(3, 5));
            assert_eq!(
                acc.aggregate_weighted(&vectors, &[1, 2, 3]).unwrap_err(),
                mismatch(3, 5)
            );
            // One weight per vector, checked before any slicing.
            assert_eq!(
                acc.aggregate_weighted(&vectors[..2], &[1]).unwrap_err(),
                mismatch(2, 1)
            );
            let err = acc.add_timed(&long, &short).unwrap_err();
            assert_eq!(err, mismatch(5, 3));
            assert_eq!(
                err.to_string(),
                "platform: vectorized operands differ in length: 5 vs 3"
            );
        }
    }

    /// One launch per aggregator node, charged as the `P − 1` additions
    /// per word it stands for.
    #[test]
    fn aggregation_launches_once_per_node_and_charges_every_add() {
        let keys = keys();
        let parties = 128usize;
        let flat = Accelerator::new(BackendKind::Haflo, keys.clone(), 4).unwrap();
        let vectors: Vec<EncryptedVector> = (0..parties as u64)
            .map(|k| flat.encrypt(&grads(3), 500 + k).unwrap())
            .collect();
        let weights: Vec<u64> = (1..=parties as u64).collect();
        let words = vectors[0].cts.len() as u64;
        let fold_ops = (parties as u64 - 1) * words * keys.public.add_op_estimate();
        // (launches, items, limb-level ops) one call adds on the device;
        // the call charges the accelerator's accumulator too.
        let run = |acc: &Accelerator, call: &dyn Fn(&Accelerator) -> EncryptedVector| {
            let before = acc.device_stats().unwrap();
            let _ = acc.take_timing();
            let out = call(acc);
            assert!(acc.take_timing().he_seconds > 0.0);
            let after = acc.device_stats().unwrap();
            let launches = after.launches - before.launches;
            (
                out,
                launches,
                after.items - before.items,
                after.thread_ops - before.thread_ops,
            )
        };
        let tree = Accelerator::new(BackendKind::Haflo, keys.clone(), 4)
            .unwrap()
            .with_topology(AggregationTopology::tree(16));

        let (plain, launches, items, ops) = run(&flat, &|a| a.aggregate(&vectors).unwrap());
        assert_eq!((launches, items, ops), (1, words, fold_ops));
        let (out, launches, items, ops) = run(&tree, &|a| a.aggregate(&vectors).unwrap());
        assert_eq!(out, plain);
        assert_eq!((launches, items, ops), (8 + 1, 9 * words, fold_ops));

        // Weighted: 8 weighted leaves, each charged its chain per word and
        // its `R`-power once, then one fold of their 8 partials.
        let (_, launches, _, ops) = run(&tree, &|a| {
            a.aggregate_weighted(&vectors, &weights).unwrap()
        });
        assert_eq!(launches, 8 + 1);
        let leaf_ops: u64 = weights
            .chunks(16)
            .map(|w| {
                let w: Vec<Natural> = w.iter().map(|&x| Natural::from(x)).collect();
                let plan = multi_exp_plan(&w);
                words * keys.public.weighted_sum_op_estimate(&plan)
                    + keys.public.weighted_fixup_op_estimate(&plan)
            })
            .sum();
        assert_eq!(ops, leaf_ops + 7 * words * keys.public.add_op_estimate());
        let weighted_launches = tree
            .device_stats()
            .unwrap()
            .utilization_samples
            .iter()
            .filter(|s| s.kernel == "paillier_weighted_sum")
            .count();
        assert_eq!(weighted_launches, 8);
    }

    /// One hostile upload in leaf group 5 of 8 fails the weighted tree
    /// with the error that leaf's own fold raises, at any pool width,
    /// and the failed call charges nothing.
    #[test]
    fn a_hostile_upload_in_leaf_five_fails_the_weighted_tree_with_its_leaf_error() {
        let keys = keys();
        let foreign = {
            let mut rng = ChaCha8Rng::seed_from_u64(0xF0E);
            PaillierKeyPair::generate(&mut rng, 128).unwrap()
        };
        let weights: Vec<u64> = (0..128).map(|i| 1 + 3 * i).collect();
        for kind in [BackendKind::Fate, BackendKind::Haflo] {
            let acc = Accelerator::new(kind, keys.clone(), 4)
                .unwrap()
                .with_topology(AggregationTopology::tree(16));
            let mut vectors: Vec<EncryptedVector> = (0..128u64)
                .map(|k| acc.encrypt(&grads(3), 900 + k).unwrap())
                .collect();
            let stranger = Accelerator::new(kind, foreign.clone(), 4).unwrap();
            vectors[5 * 16 + 9] = stranger.encrypt(&grads(3), 1).unwrap();
            let leaf: Vec<&[Ciphertext]> =
                vectors[80..96].iter().map(|v| v.cts.as_slice()).collect();
            let alone = acc
                .he
                .weighted_aggregate(&keys.public, &leaf, &weights[80..96])
                .unwrap_err();
            assert_eq!(alone, he::Error::AggregandKeyMismatch { index: 9 });
            for threads in [1, 2, 8] {
                let host = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let _ = acc.take_timing();
                let err = host.install(|| acc.aggregate_weighted(&vectors, &weights).unwrap_err());
                let want = crate::Error::Platform(flbooster_core::Error::He(alone.clone()));
                assert_eq!(err, want, "{kind:?}, threads={threads}");
                assert_eq!(
                    acc.timing(),
                    AccelTiming::default(),
                    "{kind:?}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn tree_and_sharded_aggregation_match_flat_bit_identically() {
        let keys = keys();
        let g = grads(10);
        let flat = Accelerator::new(BackendKind::Fate, keys.clone(), 4).unwrap();
        let vectors: Vec<EncryptedVector> = (0..11u64)
            .map(|k| flat.encrypt(&g, 100 + k).unwrap())
            .collect();
        let weights: Vec<u64> = (0..11u64).map(|k| k * 31 + 1).collect();
        let plain = flat.aggregate(&vectors).unwrap();
        let weighted = flat.aggregate_weighted(&vectors, &weights).unwrap();
        for arity in [2usize, 4, 16] {
            let acc = Accelerator::new(BackendKind::Fate, keys.clone(), 4)
                .unwrap()
                .with_topology(AggregationTopology::tree(arity));
            assert_eq!(acc.topology(), AggregationTopology::tree(arity));
            // Ciphertext-level equality: canonical residues mod n².
            assert_eq!(acc.aggregate(&vectors).unwrap(), plain, "arity {arity}");
            assert_eq!(
                acc.aggregate_weighted(&vectors, &weights).unwrap(),
                weighted,
                "arity {arity}"
            );
        }
    }
}
